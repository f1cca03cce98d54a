(* The generated inputs of the three workloads.  Everything is drawn
   from the workload seed; the program only ever sees the instances. *)

open Archex
open Pipeline

(* The generator seeds of a batch: [batch] distinct draws, by the
   workload seed, from the pinned pool [1 .. pool] of stream [salt].
   Two seeds share about batch/pool of their instances, which keeps the
   sample's median and tail from swinging with the seed while a held-out
   seed still brings instances a change was not tuned on. *)
let draw ~seed ~salt ~pool batch =
  let st = Random.State.make [| seed; salt |] in
  let a = Array.init pool (fun i -> i + 1) in
  for i = pool - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 batch

(* table1-tree: the paper's Table-1 data-collection WSN, energy
   objective, test scale (3 sensors, 3x2 relay grid); sensor jitter
   from [dc_seed].  Solved to a proved gap. *)
let table1_kstar = 4

let table1_item ~kstar dc_seed =
  {
    id = Printf.sprintf "table1 test-scale energy dc_seed=%d" dc_seed;
    seed = dc_seed;
    kstar;
    node_limit = None;
    build =
      (fun () ->
        Scenarios.data_collection ~objective:Objective.energy
          { Scenario.test_data_collection_params with Scenarios.dc_seed });
  }

(* tactical-root: the seeded 3-floor tactical generator, energy
   objective, lifetime >= 3.5 y, under a fixed node budget so the tree
   (and with it every count) is reproducible. *)
let tactical_sensors = 6
let tactical_grid = (10, 4)
let tactical_nodes = 100

let tactical_item ~sensors ~grid ~nodes g =
  let spec =
    Scenario_gen.multi_floor ~floors:3 ~sensors ~relay_grid:grid
      ~objective:Scenario_gen.O_energy ~min_lifetime_years:3.5 ~seed:g ()
  in
  {
    id =
      Printf.sprintf "multi_floor floors=3 sensors=%d relay_grid=%dx%d energy lifetime>=3.5 seed=%d"
        sensors (fst grid) (snd grid) g;
    seed = g;
    kstar = 6;
    node_limit = Some nodes;
    build = (fun () -> Scenario_gen.build spec);
  }

(* archexd-mix catalogue: Table-1 dollar and mixed objective variants
   and tac-smoke-scale tactical variants at generator seeds 1 and 2, each
   with the K* range its requests draw from.  The catalogue is pinned and
   the workload seed drives only the request stream.  The Table-1 energy
   objective is left to table1-tree: its trees are heavy-tailed (a warm
   re-solve can take 1.5 s), so one such entry drew up to three quarters
   of a run's time and the figures followed the catalogue's luck instead
   of the serving layers. *)
type entry = { e_item : item; e_kmin : int; e_kmax : int }

let catalogue =
  let table1 (objective, oname, dc_seed) =
    {
      e_item =
        {
          id = Printf.sprintf "perfbench-dc-small-%s-%d" oname dc_seed;
          seed = dc_seed;
          kstar = 4;
          node_limit = None;
          build =
            (fun () ->
              Scenarios.data_collection ~objective
                { Scenario.test_data_collection_params with Scenarios.dc_seed });
        };
      e_kmin = 2;
      e_kmax = 4;
    }
  in
  let smoke (objective, oname, g) =
    let spec =
      Scenario_gen.multi_floor ~floors:2 ~floor_w:28. ~floor_h:18. ~rooms_x:2 ~rooms_y:2 ~sensors:3
        ~relay_grid:(6, 3) ~replicas:1 ~objective ~seed:g ()
    in
    {
      e_item =
        {
          id = Printf.sprintf "perfbench-tac-smoke-%s-%d" oname g;
          seed = g;
          kstar = 6;
          node_limit = None;
          build = (fun () -> Scenario_gen.build spec);
        };
      e_kmin = 2;
      e_kmax = 6;
    }
  in
  let mixed = Objective.combine Objective.dollar Objective.energy in
  List.map table1
    [ (Objective.dollar, "dollar", 1); (Objective.dollar, "dollar", 2); (mixed, "mixed", 1); (mixed, "mixed", 2) ]
  @ List.map smoke
      [
        (Scenario_gen.O_dollar, "dollar", 1); (Scenario_gen.O_energy, "energy", 1);
        (Scenario_gen.O_dollar, "dollar", 2); (Scenario_gen.O_energy, "energy", 2);
      ]

let registered = Hashtbl.create 16

(* Make the catalogue addressable by name over the daemon protocol. *)
let register entries =
  List.iter
    (fun e ->
      let it = e.e_item in
      if not (Hashtbl.mem registered it.id) then begin
        Hashtbl.add registered it.id ();
        Scenario.register
          {
            Scenario.sc_name = it.id;
            sc_descr = "perfbench archexd-mix catalogue entry";
            sc_scale = Scenario.Test;
            sc_expected = None;
            sc_build = it.build;
          }
      end)
    entries

(* The request stream: a sequence of K* sweeps.  Each sweep is the
   paper's systematic K* selection (section 4.3, [Kstar.search]) run by
   a client against the daemon: one catalogue entry, drawn by the seed,
   requested at every K* of its range in increasing order (the schedule
   walked to exhaustion; the early stop on no improvement would make
   the stream depend on the replies).  No split between request kinds
   is chosen: the generator follows the daemon's LRU session cache as
   if the sweeps were served one after another, and labels each request
   by what the cache makes of it -- a miss (cold), a K* above the cached
   session's (grow: [Path_gen.extend], delta encode, presolve re-apply,
   cut carry), or a K* at or below it (read).  The split then follows
   from the catalogue's K* ranges and the cache capacity. *)
type kind = Cold | Grow | Read

let kind_name = function Cold -> "cold" | Grow -> "grow" | Read -> "read"

type request = { q_name : string; q_kstar : int; q_kind : kind }

(* Whole sweeps holding at least [n] requests. *)
let stream ~seed ~capacity entries n =
  let st = Random.State.make [| seed; 5 |] in
  let cache = ref [] (* (entry id, K* of its session), most recent first *) in
  let step e k =
    let id = e.e_item.id in
    let kind, k' =
      match List.assoc_opt id !cache with
      | None -> (Cold, k)
      | Some c when k > c -> (Grow, k)
      | Some c -> (Read, c)
    in
    cache := List.filteri (fun i _ -> i < capacity) ((id, k') :: List.remove_assoc id !cache);
    { q_name = id; q_kstar = k; q_kind = kind }
  in
  let rec gen acc left =
    if left <= 0 then Array.of_list (List.rev acc)
    else
      let e = List.nth entries (Random.State.int st (List.length entries)) in
      let sweep = Array.init (e.e_kmax - e.e_kmin + 1) (fun j -> step e (e.e_kmin + j)) in
      gen (sweep :: acc) (left - Array.length sweep)
  in
  gen [] n

(* The first sweeps of [sweeps] holding at least [n] requests. *)
let prefix sweeps n =
  let rec go i left = if i >= Array.length sweeps || left <= 0 then i else go (i + 1) (left - Array.length sweeps.(i)) in
  Array.sub sweeps 0 (go 0 n)

let requests sweeps = Array.fold_left (fun acc s -> acc + Array.length s) 0 sweeps
