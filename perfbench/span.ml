(* In-memory span recorder for the traced run.

   A span brackets one call into a layer's public function: name,
   start, end, parent span and request id.  Spans stay in memory and are
   written out when the run ends.  With recording off (the untraced
   run) [record] is a plain call, so both runs execute the same code. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span. *)
  req : int;  (** Request (operation) id shared by the spans of one operation. *)
  name : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1

let record ?(parent = 0) ?(req = 0) name f =
  if not !enabled then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = Milp.Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        let s = { id; parent; req; name; t0; t1 = Milp.Clock.now () } in
        Mutex.protect lock (fun () -> recorded := s :: !recorded))
      (fun () -> f id)
  end

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

let reset () = Mutex.protect lock (fun () -> recorded := [])

(* Duration of the span [name] of operation [req], if recorded. *)
let find ~req name =
  List.find_map (fun s -> if s.req = req && s.name = name then Some (s.t1 -. s.t0) else None) (all ())

let duration s = s.t1 -. s.t0

(* Durations of every span with [name], in recording order. *)
let durations name =
  List.filter_map (fun s -> if s.name = name then Some (duration s) else None) (all ())

(* Self time per span: its duration minus the part of its interval
   covered by its direct children (children of one parent are
   sequential here, so their durations add up). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

(* Per-name totals: (name, count, total seconds, self seconds). *)
let summary spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let n, tot, st = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (n + 1, tot +. duration s, st +. self))
    (self_times spans);
  Hashtbl.fold (fun name (n, tot, st) acc -> (name, n, tot, st) :: acc) tbl []
  |> List.sort compare

(* [record] that also returns the call's wall time. *)
let timed ?parent ?req name f =
  let t0 = Milp.Clock.now () in
  let r = record ?parent ?req name f in
  (r, Milp.Clock.now () -. t0)
