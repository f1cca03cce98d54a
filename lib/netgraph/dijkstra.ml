let no_node _ = false

let no_edge _ _ = false

(* Textbook lazy-deletion Dijkstra on a float-keyed binary heap.  The
   heap comes from the milp library's Pqueue twin; to keep netgraph
   dependency-free we re-implement the few lines needed. *)
module Heap = struct
  type t = { mutable keys : float array; mutable vals : int array; mutable len : int }

  let create () = { keys = [||]; vals = [||]; len = 0 }

  let push h k v =
    if h.len = Array.length h.keys then begin
      let cap = if h.len = 0 then 16 else 2 * h.len in
      let nk = Array.make cap 0. and nv = Array.make cap 0 in
      Array.blit h.keys 0 nk 0 h.len;
      Array.blit h.vals 0 nv 0 h.len;
      h.keys <- nk;
      h.vals <- nv
    end;
    let i = ref h.len in
    h.keys.(!i) <- k;
    h.vals.(!i) <- v;
    h.len <- h.len + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      if h.keys.(p) > h.keys.(!i) then begin
        let tk = h.keys.(p) and tv = h.vals.(p) in
        h.keys.(p) <- h.keys.(!i);
        h.vals.(p) <- h.vals.(!i);
        h.keys.(!i) <- tk;
        h.vals.(!i) <- tv;
        i := p
      end
      else continue := false
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let k = h.keys.(0) and v = h.vals.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.keys.(0) <- h.keys.(h.len);
        h.vals.(0) <- h.vals.(h.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let s = ref !i in
          if l < h.len && h.keys.(l) < h.keys.(!s) then s := l;
          if r < h.len && h.keys.(r) < h.keys.(!s) then s := r;
          if !s <> !i then begin
            let tk = h.keys.(!s) and tv = h.vals.(!s) in
            h.keys.(!s) <- h.keys.(!i);
            h.vals.(!s) <- h.vals.(!i);
            h.keys.(!i) <- tk;
            h.vals.(!i) <- tv;
            i := !s
          end
          else continue := false
        done
      end;
      Some (k, v)
    end
end

let search ?(banned_node = no_node) ?(banned_edge = no_edge) g ~src ~stop_at =
  let n = Digraph.nnodes g in
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Heap.create () in
  (* Node ids are >= 0, so -1 is a safe "no stop" sentinel; an int
     equality per pop beats allocating-free but boxed-compare
     [stop_at = Some u] in the hot loop. *)
  let stop = match stop_at with Some v -> v | None -> -1 in
  dist.(src) <- 0.;
  Heap.push heap 0. src;
  let finished = ref false in
  while not !finished do
    match Heap.pop heap with
    | None -> finished := true
    | Some (d, u) ->
        if not settled.(u) && d <= dist.(u) then begin
          settled.(u) <- true;
          if u = stop then finished := true
          else
            Digraph.iter_succ g u (fun v w ->
                if w < 0. then invalid_arg "Dijkstra: negative edge weight";
                if
                  (not settled.(v))
                  && (not (banned_node v))
                  && (not (banned_edge u v))
                  && Float.is_finite w
                then begin
                  let nd = d +. w in
                  if nd < dist.(v) then begin
                    dist.(v) <- nd;
                    prev.(v) <- u;
                    Heap.push heap nd v
                  end
                end)
        end
  done;
  (dist, prev)

let shortest_path ?banned_node ?banned_edge g ~src ~dst =
  let banned_node =
    match banned_node with
    | None -> None
    | Some f -> Some (fun v -> v <> src && v <> dst && f v)
  in
  let dist, prev = search ?banned_node ?banned_edge g ~src ~stop_at:(Some dst) in
  if Float.is_finite dist.(dst) then begin
    let rec build acc u = if u = src then src :: acc else build (u :: acc) prev.(u) in
    Some (dist.(dst), build [] dst)
  end
  else None

let distances ?banned_node ?banned_edge g ~src =
  fst (search ?banned_node ?banned_edge g ~src ~stop_at:None)
