(* Adjacency is stored twice, forward and backward.  Each side keeps,
   per node, its neighbours and their weights in parallel growable
   arrays in insertion order, so traversals are deterministic and an
   edge costs two words per side.  Lookups scan the node's neighbours:
   the graphs here have small degrees, and a scan beats a per-node
   hashtable on both memory and probe cost. *)
module FA = Float.Array

type side = {
  nb : int array array;  (* node -> neighbours; [0, deg) live *)
  wt : floatarray array;  (* node -> weights, parallel to [nb] *)
  deg : int array;
}

type t = { n : int; fwd : side; bwd : side; mutable ecount : int }

let empty_w = FA.create 0

let mk_side n = { nb = Array.make n [||]; wt = Array.make n empty_w; deg = Array.make n 0 }

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  { n; fwd = mk_side n; bwd = mk_side n; ecount = 0 }

let nnodes g = g.n

let nedges g = g.ecount

let check g u name =
  if u < 0 || u >= g.n then
    invalid_arg (Printf.sprintf "Digraph.%s: node %d out of range [0, %d)" name u g.n)

(* Slot of [v] among [u]'s neighbours on side [a], or -1. *)
let find a u v =
  let nb = a.nb.(u) and d = a.deg.(u) in
  let i = ref 0 in
  while !i < d && Array.unsafe_get nb !i <> v do
    incr i
  done;
  if !i < d then !i else -1

let append a u v w =
  let d = a.deg.(u) in
  if d = Array.length a.nb.(u) then begin
    let cap = max 4 (2 * d) in
    let nb = Array.make cap 0 and wt = FA.make cap 0. in
    Array.blit a.nb.(u) 0 nb 0 d;
    FA.blit a.wt.(u) 0 wt 0 d;
    a.nb.(u) <- nb;
    a.wt.(u) <- wt
  end;
  a.nb.(u).(d) <- v;
  FA.set a.wt.(u) d w;
  a.deg.(u) <- d + 1

let add_edge g ?(w = 1.0) u v =
  check g u "add_edge";
  check g v "add_edge";
  if u = v then invalid_arg "Digraph.add_edge: self-loop";
  let i = find g.fwd u v in
  if i >= 0 then begin
    FA.set g.fwd.wt.(u) i w;
    FA.set g.bwd.wt.(v) (find g.bwd v u) w
  end
  else begin
    append g.fwd u v w;
    append g.bwd v u w;
    g.ecount <- g.ecount + 1
  end

let add_undirected g ?w u v =
  add_edge g ?w u v;
  add_edge g ?w v u

let mem_edge g u v =
  check g u "mem_edge";
  check g v "mem_edge";
  find g.fwd u v >= 0

let weight_opt g u v =
  check g u "weight";
  check g v "weight";
  let i = find g.fwd u v in
  if i < 0 then None else Some (FA.get g.fwd.wt.(u) i)

let weight g u v =
  match weight_opt g u v with Some w -> w | None -> raise Not_found

let set_weight g u v w =
  if not (mem_edge g u v) then raise Not_found;
  FA.set g.fwd.wt.(u) (find g.fwd u v) w;
  FA.set g.bwd.wt.(v) (find g.bwd v u) w

let neighbours a u =
  let nb = a.nb.(u) and wt = a.wt.(u) in
  let rec build i acc = if i < 0 then acc else build (i - 1) ((nb.(i), FA.get wt i) :: acc) in
  build (a.deg.(u) - 1) []

let succ g u =
  check g u "succ";
  neighbours g.fwd u

let pred g u =
  check g u "pred";
  neighbours g.bwd u

let iter_succ g u f =
  check g u "iter_succ";
  let nb = g.fwd.nb.(u) and wt = g.fwd.wt.(u) in
  for i = 0 to g.fwd.deg.(u) - 1 do
    f (Array.unsafe_get nb i) (FA.unsafe_get wt i)
  done

let out_degree g u =
  check g u "out_degree";
  g.fwd.deg.(u)

let in_degree g u =
  check g u "in_degree";
  g.bwd.deg.(u)

let iter_edges f g =
  for u = 0 to g.n - 1 do
    let nb = g.fwd.nb.(u) and wt = g.fwd.wt.(u) in
    for i = 0 to g.fwd.deg.(u) - 1 do
      f u nb.(i) (FA.get wt i)
    done
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun u v w -> acc := f u v w !acc) g;
  !acc

let edges g = List.rev (fold_edges (fun u v w acc -> (u, v, w) :: acc) g [])

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v, w) -> add_edge g ~w u v) es;
  g

(* An exact-size copy of one side: a copied graph is usually kept
   (one per route in path generation), so it carries no growth slack. *)
let copy_side a =
  { nb = Array.mapi (fun u nb -> if a.deg.(u) = 0 then [||] else Array.sub nb 0 a.deg.(u)) a.nb;
    wt = Array.mapi (fun u wt -> if a.deg.(u) = 0 then empty_w else FA.sub wt 0 a.deg.(u)) a.wt;
    deg = Array.copy a.deg }

let copy g = { n = g.n; fwd = copy_side g.fwd; bwd = copy_side g.bwd; ecount = g.ecount }

let transpose g = { n = g.n; fwd = copy_side g.bwd; bwd = copy_side g.fwd; ecount = g.ecount }

let reachable g s =
  check g s "reachable";
  let seen = Array.make g.n false in
  let rec visit u =
    if not seen.(u) then begin
      seen.(u) <- true;
      iter_succ g u (fun v _ -> visit v)
    end
  in
  visit s;
  seen

let pp ppf g =
  Format.fprintf ppf "digraph(%d nodes, %d edges)" g.n g.ecount
