(* Unit-capacity Edmonds-Karp specialised to edge-disjoint paths: the
   residual graph is a set of directed unit edges; a BFS augmenting path
   flips its edges. *)

type residual = {
  n : int;
  fwd : (int * int, bool) Hashtbl.t;  (* edge present in residual *)
  adj : (int, int list) Hashtbl.t;  (* static neighbour lists, both directions *)
}

let build ?(ignore_infinite = true) g =
  let n = Digraph.nnodes g in
  let fwd = Hashtbl.create 256 in
  let adj = Hashtbl.create 64 in
  let add_adj u v =
    let l = Option.value ~default:[] (Hashtbl.find_opt adj u) in
    if not (List.mem v l) then Hashtbl.replace adj u (v :: l)
  in
  Digraph.iter_edges
    (fun u v w ->
      if (not ignore_infinite) || Float.is_finite w then begin
        Hashtbl.replace fwd (u, v) true;
        if not (Hashtbl.mem fwd (v, u)) then Hashtbl.replace fwd (v, u) false;
        add_adj u v;
        add_adj v u
      end)
    g;
  { n; fwd; adj }

let bfs r ~src ~dst =
  let prev = Array.make r.n (-1) in
  let seen = Array.make r.n false in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.push src queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if
          (not seen.(v))
          && Option.value ~default:false (Hashtbl.find_opt r.fwd (u, v))
        then begin
          seen.(v) <- true;
          prev.(v) <- u;
          if v = dst then found := true else Queue.push v queue
        end)
      (Option.value ~default:[] (Hashtbl.find_opt r.adj u))
  done;
  if !found then Some prev else None

let augment r prev ~src ~dst =
  let rec go v =
    if v <> src then begin
      let u = prev.(v) in
      Hashtbl.replace r.fwd (u, v) false;
      Hashtbl.replace r.fwd (v, u) true;
      go u
    end
  in
  go dst

let check g ~src ~dst name =
  let n = Digraph.nnodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg (Printf.sprintf "Maxflow.%s: endpoint out of range" name);
  if src = dst then invalid_arg (Printf.sprintf "Maxflow.%s: src = dst" name)

let run ?ignore_infinite g ~src ~dst =
  let r = build ?ignore_infinite g in
  let flow = ref 0 in
  let continue = ref true in
  while !continue do
    match bfs r ~src ~dst with
    | Some prev ->
        augment r prev ~src ~dst;
        incr flow
    | None -> continue := false
  done;
  (r, !flow)

let edge_disjoint_capacity ?ignore_infinite g ~src ~dst =
  check g ~src ~dst "edge_disjoint_capacity";
  snd (run ?ignore_infinite g ~src ~dst)

let disjoint_paths g ~src ~dst =
  check g ~src ~dst "disjoint_paths";
  let r, flow = run g ~src ~dst in
  (* Decompose the flow: saturated original edges are those whose
     forward residual is now false while the edge existed in g. *)
  let used = Hashtbl.create 64 in
  Digraph.iter_edges
    (fun u v w ->
      if
        Float.is_finite w
        && not (Option.value ~default:true (Hashtbl.find_opt r.fwd (u, v)))
      then Hashtbl.replace used (u, v) true)
    g;
  let paths = ref [] in
  for _ = 1 to flow do
    (* Walk from src along used edges, consuming them. *)
    let rec walk acc u =
      if u = dst then List.rev (u :: acc)
      else begin
        let next = ref (-1) in
        Digraph.iter_succ g u (fun v _ ->
            if !next < 0 && Option.value ~default:false (Hashtbl.find_opt used (u, v)) then
              next := v);
        let v = !next in
        if v >= 0 then begin
          Hashtbl.replace used (u, v) false;
          walk (u :: acc) v
        end
        else List.rev (u :: acc) (* should not happen on a valid flow *)
      end
    in
    paths := walk [] src :: !paths
  done;
  List.rev !paths
