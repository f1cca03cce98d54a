(* Tests for the graph substrate: digraph operations, Dijkstra with
   node/edge masks, Yen's K-shortest loopless paths (including a check
   against brute-force path enumeration), and path utilities. *)

open Netgraph

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Digraph                                                             *)
(* ------------------------------------------------------------------ *)

let test_digraph_basic () =
  let g = Digraph.create 4 in
  Digraph.add_edge g ~w:2. 0 1;
  Digraph.add_edge g ~w:3. 1 2;
  Digraph.add_edge g 2 3;
  Alcotest.(check int) "nodes" 4 (Digraph.nnodes g);
  Alcotest.(check int) "edges" 3 (Digraph.nedges g);
  Alcotest.(check bool) "mem" true (Digraph.mem_edge g 0 1);
  Alcotest.(check bool) "not mem reverse" false (Digraph.mem_edge g 1 0);
  Alcotest.(check (float 1e-9)) "weight" 2. (Digraph.weight g 0 1);
  Alcotest.(check (float 1e-9)) "default weight" 1. (Digraph.weight g 2 3)

let test_digraph_overwrite () =
  let g = Digraph.create 2 in
  Digraph.add_edge g ~w:1. 0 1;
  Digraph.add_edge g ~w:5. 0 1;
  Alcotest.(check int) "edge count unchanged" 1 (Digraph.nedges g);
  Alcotest.(check (float 1e-9)) "weight overwritten" 5. (Digraph.weight g 0 1)

let test_digraph_set_weight () =
  let g = Digraph.create 2 in
  Digraph.add_edge g ~w:1. 0 1;
  Digraph.set_weight g 0 1 7.;
  Alcotest.(check (float 1e-9)) "fwd" 7. (Digraph.weight g 0 1);
  Alcotest.(check (float 1e-9)) "bwd view" 7. (List.assoc 0 (Digraph.pred g 1));
  Alcotest.check_raises "missing edge" Not_found (fun () -> Digraph.set_weight g 1 0 1.)

let test_digraph_rejects_self_loop () =
  let g = Digraph.create 2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.add_edge: self-loop") (fun () ->
      Digraph.add_edge g 1 1)

let test_digraph_degrees () =
  let g = Digraph.of_edges 4 [ (0, 1, 1.); (0, 2, 1.); (3, 0, 1.) ] in
  Alcotest.(check int) "out" 2 (Digraph.out_degree g 0);
  Alcotest.(check int) "in" 1 (Digraph.in_degree g 0);
  Alcotest.(check int) "pred count" 1 (List.length (Digraph.pred g 0))

let test_digraph_transpose () =
  let g = Digraph.of_edges 3 [ (0, 1, 2.); (1, 2, 3.) ] in
  let t = Digraph.transpose g in
  Alcotest.(check bool) "reversed" true (Digraph.mem_edge t 1 0);
  Alcotest.(check (float 1e-9)) "weight kept" 3. (Digraph.weight t 2 1)

let test_digraph_reachable () =
  let g = Digraph.of_edges 5 [ (0, 1, 1.); (1, 2, 1.); (3, 4, 1.) ] in
  let r = Digraph.reachable g 0 in
  Alcotest.(check bool) "self" true r.(0);
  Alcotest.(check bool) "transitive" true r.(2);
  Alcotest.(check bool) "disconnected" false r.(3)

let test_digraph_copy_independent () =
  let g = Digraph.of_edges 2 [ (0, 1, 1.) ] in
  let h = Digraph.copy g in
  Digraph.set_weight h 0 1 9.;
  Alcotest.(check (float 1e-9)) "original untouched" 1. (Digraph.weight g 0 1)

let test_digraph_undirected () =
  let g = Digraph.create 2 in
  Digraph.add_undirected g ~w:4. 0 1;
  Alcotest.(check bool) "both ways" true (Digraph.mem_edge g 0 1 && Digraph.mem_edge g 1 0)

(* Reference adjacency model: per node, the (neighbour, weight) lists
   of each direction in insertion order. *)
type ref_graph = { rf : (int * float) list array; rb : (int * float) list array }

type op = Add of int * int * float | Set of int * int * float | Copy | Transpose

let ref_add r u v w =
  if List.mem_assoc v r.rf.(u) then begin
    r.rf.(u) <- List.map (fun (x, y) -> if x = v then (x, w) else (x, y)) r.rf.(u);
    r.rb.(v) <- List.map (fun (x, y) -> if x = u then (x, w) else (x, y)) r.rb.(v)
  end
  else begin
    r.rf.(u) <- r.rf.(u) @ [ (v, w) ];
    r.rb.(v) <- r.rb.(v) @ [ (u, w) ]
  end

let gen_ops =
  QCheck2.Gen.(
    let* n = int_range 2 7 in
    let node = int_range 0 (n - 1) in
    let weight = map float_of_int (int_range 0 9) in
    let op =
      frequency
        [ (6, map3 (fun u v w -> Add (u, v, w)) node node weight);
          (3, map3 (fun u v w -> Set (u, v, w)) node node weight);
          (1, return Copy);
          (1, return Transpose) ]
    in
    let* ops = list_size (int_range 0 40) op in
    return (n, ops))

let prop_digraph_matches_reference =
  QCheck2.Test.make ~name:"digraph: orders, weights and degrees follow a reference model"
    ~count:300 gen_ops (fun (n, ops) ->
      let g = ref (Digraph.create n) in
      let r = ref { rf = Array.make n []; rb = Array.make n [] } in
      let agrees () =
        let g = !g and r = !r in
        let edges = Array.fold_left (fun k l -> k + List.length l) 0 r.rf in
        Digraph.nedges g = edges
        && List.for_all
             (fun u ->
               let succ = ref [] in
               Digraph.iter_succ g u (fun v w -> succ := (v, w) :: !succ);
               Digraph.succ g u = r.rf.(u)
               && List.rev !succ = r.rf.(u)
               && Digraph.pred g u = r.rb.(u)
               && Digraph.out_degree g u = List.length r.rf.(u)
               && Digraph.in_degree g u = List.length r.rb.(u)
               && List.for_all
                    (fun v -> Digraph.weight_opt g u v = List.assoc_opt v r.rf.(u))
                    (List.init n Fun.id))
             (List.init n Fun.id)
      in
      List.for_all
        (fun op ->
          (match op with
          | Add (u, v, w) ->
              if u <> v then begin
                Digraph.add_edge !g ~w u v;
                ref_add !r u v w
              end
          | Set (u, v, w) ->
              if List.mem_assoc v !r.rf.(u) then begin
                Digraph.set_weight !g u v w;
                ref_add !r u v w
              end
          | Copy ->
              (* The copy must be independent: a write to the original
                 afterwards does not reach it. *)
              let h = Digraph.copy !g in
              (match Digraph.edges !g with
              | (u, v, _) :: _ -> Digraph.set_weight !g u v 99.
              | [] -> ());
              g := h
          | Transpose ->
              g := Digraph.transpose !g;
              r := { rf = !r.rb; rb = !r.rf });
          agrees ())
        ops)

(* ------------------------------------------------------------------ *)
(* Dijkstra                                                            *)
(* ------------------------------------------------------------------ *)

let diamond () =
  Digraph.of_edges 4 [ (0, 1, 1.); (0, 2, 4.); (1, 2, 1.); (1, 3, 5.); (2, 3, 1.) ]

let test_dijkstra_shortest () =
  match Dijkstra.shortest_path (diamond ()) ~src:0 ~dst:3 with
  | Some (cost, path) ->
      Alcotest.(check (float 1e-9)) "cost" 3. cost;
      Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] path
  | None -> Alcotest.fail "expected a path"

let test_dijkstra_unreachable () =
  let g = Digraph.of_edges 3 [ (0, 1, 1.) ] in
  Alcotest.(check bool) "unreachable" true (Dijkstra.shortest_path g ~src:0 ~dst:2 = None)

let test_dijkstra_banned_node () =
  let r = Dijkstra.shortest_path (diamond ()) ~banned_node:(fun v -> v = 1) ~src:0 ~dst:3 in
  match r with
  | Some (cost, path) ->
      Alcotest.(check (float 1e-9)) "detour cost" 5. cost;
      Alcotest.(check (list int)) "detour path" [ 0; 2; 3 ] path
  | None -> Alcotest.fail "expected a detour"

let test_dijkstra_banned_edge () =
  let r =
    Dijkstra.shortest_path (diamond ()) ~banned_edge:(fun u v -> u = 2 && v = 3) ~src:0 ~dst:3
  in
  match r with
  | Some (cost, path) ->
      Alcotest.(check (float 1e-9)) "cost without (2,3)" 6. cost;
      Alcotest.(check (list int)) "path without (2,3)" [ 0; 1; 3 ] path
  | None -> Alcotest.fail "expected a path"

let test_dijkstra_infinite_weight_skipped () =
  let g = Digraph.of_edges 3 [ (0, 1, infinity); (0, 2, 1.); (2, 1, 1.) ] in
  match Dijkstra.shortest_path g ~src:0 ~dst:1 with
  | Some (cost, _) -> Alcotest.(check (float 1e-9)) "avoids inf edge" 2. cost
  | None -> Alcotest.fail "expected a path"

let test_dijkstra_src_eq_dst () =
  match Dijkstra.shortest_path (diamond ()) ~src:2 ~dst:2 with
  | Some (cost, path) ->
      Alcotest.(check (float 1e-9)) "zero cost" 0. cost;
      Alcotest.(check (list int)) "trivial path" [ 2 ] path
  | None -> Alcotest.fail "expected the trivial path"

let test_dijkstra_negative_weight_rejected () =
  let g = Digraph.of_edges 2 [ (0, 1, -1.) ] in
  Alcotest.check_raises "negative weight" (Invalid_argument "Dijkstra: negative edge weight")
    (fun () -> ignore (Dijkstra.shortest_path g ~src:0 ~dst:1))

(* Random graphs: distances computed by Dijkstra equal Bellman-Ford. *)
let random_graph_gen =
  QCheck2.Gen.(
    let* n = int_range 2 9 in
    let* edges =
      list_size
        (int_range 1 (n * (n - 1)))
        (let* u = int_range 0 (n - 1) in
         let* v = int_range 0 (n - 1) in
         let* w = float_range 0.1 10. in
         return (u, v, w))
    in
    return (n, List.filter (fun (u, v, _) -> u <> v) edges))

let bellman_ford g src =
  let n = Digraph.nnodes g in
  let dist = Array.make n infinity in
  dist.(src) <- 0.;
  for _ = 1 to n do
    Digraph.iter_edges (fun u v w -> if dist.(u) +. w < dist.(v) then dist.(v) <- dist.(u) +. w) g
  done;
  dist

let prop_dijkstra_vs_bellman_ford =
  QCheck2.Test.make ~name:"dijkstra: distances match Bellman-Ford" ~count:200 random_graph_gen
    (fun (n, edges) ->
      let g = Digraph.of_edges n edges in
      let d1 = Dijkstra.distances g ~src:0 in
      let d2 = bellman_ford g 0 in
      Array.for_all2
        (fun a b -> (a = infinity && b = infinity) || Float.abs (a -. b) < 1e-9)
        d1 d2)

(* ------------------------------------------------------------------ *)
(* Path utilities                                                      *)
(* ------------------------------------------------------------------ *)

let test_path_edges_length () =
  Alcotest.(check (list (pair int int))) "edges" [ (1, 2); (2, 5) ] (Path.edges [ 1; 2; 5 ]);
  Alcotest.(check int) "length" 2 (Path.length [ 1; 2; 5 ]);
  Alcotest.(check int) "singleton" 0 (Path.length [ 3 ]);
  Alcotest.(check int) "empty" 0 (Path.length [])

let test_path_validity () =
  let g = Digraph.of_edges 4 [ (0, 1, 1.); (1, 2, 1.) ] in
  Alcotest.(check bool) "valid" true (Path.is_valid g [ 0; 1; 2 ]);
  Alcotest.(check bool) "missing edge" false (Path.is_valid g [ 0; 2 ]);
  Alcotest.(check bool) "repeated node" false (Path.is_simple [ 0; 1; 0 ]);
  Alcotest.(check bool) "empty invalid" false (Path.is_valid g [])

let test_path_cost () =
  let g = Digraph.of_edges 3 [ (0, 1, 2.5); (1, 2, 1.5) ] in
  Alcotest.(check (float 1e-9)) "cost" 4. (Path.cost g [ 0; 1; 2 ])

let test_path_endpoints () =
  Alcotest.(check (option int)) "source" (Some 7) (Path.source [ 7; 8; 9 ]);
  Alcotest.(check (option int)) "destination" (Some 9) (Path.destination [ 7; 8; 9 ]);
  Alcotest.(check (option int)) "empty source" None (Path.source [])

let test_path_disjointness () =
  Alcotest.(check bool) "edge disjoint" true (Path.edge_disjoint [ 0; 1; 3 ] [ 0; 2; 3 ]);
  Alcotest.(check bool) "shares an edge" false (Path.edge_disjoint [ 0; 1; 3 ] [ 0; 1; 2; 3 ]);
  Alcotest.(check (list (pair int int)))
    "shared edges" [ (0, 1) ]
    (Path.shared_edges [ 0; 1; 3 ] [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "node disjoint" true (Path.node_disjoint [ 0; 1; 3 ] [ 0; 2; 3 ]);
  Alcotest.(check bool) "node shared" false (Path.node_disjoint [ 0; 1; 3 ] [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Yen                                                                 *)
(* ------------------------------------------------------------------ *)

let yen_example () =
  Digraph.of_edges 6
    [
      (0, 1, 3.);
      (0, 2, 2.);
      (1, 3, 4.);
      (2, 1, 1.);
      (2, 3, 2.);
      (2, 4, 3.);
      (3, 4, 2.);
      (3, 5, 1.);
      (4, 5, 2.);
    ]

let test_yen_worked_example () =
  let ps = Yen.k_shortest (yen_example ()) ~src:0 ~dst:5 ~k:3 in
  let costs = List.map fst ps and paths = List.map snd ps in
  Alcotest.(check (list (float 1e-9))) "costs" [ 5.; 7.; 8. ] costs;
  Alcotest.(check (list (list int)))
    "paths"
    [ [ 0; 2; 3; 5 ]; [ 0; 2; 4; 5 ]; [ 0; 1; 3; 5 ] ]
    paths

let test_yen_k_one_is_dijkstra () =
  let g = yen_example () in
  let yen = Yen.k_shortest g ~src:0 ~dst:5 ~k:1 in
  let dij = Dijkstra.shortest_path g ~src:0 ~dst:5 in
  match (yen, dij) with
  | [ (c1, p1) ], Some (c2, p2) ->
      Alcotest.(check (float 1e-9)) "same cost" c2 c1;
      Alcotest.(check (list int)) "same path" p2 p1
  | _ -> Alcotest.fail "k=1 should produce exactly the Dijkstra path"

let test_yen_unreachable () =
  let g = Digraph.of_edges 3 [ (0, 1, 1.) ] in
  Alcotest.(check int) "no paths" 0 (List.length (Yen.k_shortest g ~src:0 ~dst:2 ~k:4))

let test_yen_fewer_than_k () =
  let g = Digraph.of_edges 4 [ (0, 1, 1.); (1, 3, 1.); (0, 2, 2.); (2, 3, 2.) ] in
  let ps = Yen.k_shortest g ~src:0 ~dst:3 ~k:10 in
  Alcotest.(check int) "exactly the existing paths" 2 (List.length ps)

let test_yen_rejects_bad_args () =
  let g = Digraph.create 3 in
  Alcotest.check_raises "src = dst" (Invalid_argument "Yen.k_shortest: src = dst") (fun () ->
      ignore (Yen.k_shortest g ~src:1 ~dst:1 ~k:2));
  Alcotest.check_raises "negative k" (Invalid_argument "Yen.k_shortest: negative k") (fun () ->
      ignore (Yen.k_shortest g ~src:0 ~dst:1 ~k:(-1)))

(* Brute-force all simple paths for cross-checking Yen. *)
let all_simple_paths g src dst =
  let acc = ref [] in
  let rec go path node =
    if node = dst then acc := List.rev (node :: path) :: !acc
    else
      List.iter
        (fun (next, w) ->
          if Float.is_finite w && not (List.mem next (node :: path)) then go (node :: path) next)
        (Digraph.succ g node)
  in
  go [] src;
  List.map (fun p -> (Path.cost g p, p)) !acc

let prop_yen_matches_brute_force =
  QCheck2.Test.make ~name:"yen: k best costs match brute-force enumeration" ~count:120
    random_graph_gen (fun (n, edges) ->
      let g = Digraph.of_edges n edges in
      let src = 0 and dst = n - 1 in
      let k = 5 in
      let yen = Yen.k_shortest g ~src ~dst ~k in
      let brute = List.sort (fun (a, _) (b, _) -> compare a b) (all_simple_paths g src dst) in
      let expected_costs = List.filteri (fun i _ -> i < k) (List.map fst brute) in
      let got_costs = List.map fst yen in
      List.length got_costs = List.length expected_costs
      && List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) got_costs expected_costs)

let prop_yen_paths_simple_and_sorted =
  QCheck2.Test.make ~name:"yen: results are simple, valid, distinct, sorted" ~count:120
    random_graph_gen (fun (n, edges) ->
      let g = Digraph.of_edges n edges in
      let ps = Yen.k_shortest g ~src:0 ~dst:(n - 1) ~k:6 in
      let rec sorted = function
        | (a, _) :: ((b, _) :: _ as rest) -> a <= b +. 1e-9 && sorted rest
        | _ -> true
      in
      let distinct = List.length (List.sort_uniq compare (List.map snd ps)) = List.length ps in
      sorted ps && distinct
      && List.for_all (fun (_, p) -> Path.is_valid g p && Path.source p = Some 0) ps)


(* ------------------------------------------------------------------ *)
(* Maxflow                                                             *)
(* ------------------------------------------------------------------ *)

let test_maxflow_diamond () =
  (* Two edge-disjoint routes 0->3 exist in the diamond. *)
  let g = Digraph.of_edges 4 [ (0, 1, 1.); (0, 2, 1.); (1, 3, 1.); (2, 3, 1.); (1, 2, 1.) ] in
  Alcotest.(check int) "capacity 2" 2 (Maxflow.edge_disjoint_capacity g ~src:0 ~dst:3)

let test_maxflow_bottleneck () =
  (* All routes share the bridge (2, 3): capacity 1. *)
  let g =
    Digraph.of_edges 6
      [ (0, 1, 1.); (0, 2, 1.); (1, 2, 1.); (2, 3, 1.); (3, 4, 1.); (3, 5, 1.); (4, 5, 1.) ]
  in
  Alcotest.(check int) "bridge limits to 1" 1 (Maxflow.edge_disjoint_capacity g ~src:0 ~dst:5)

let test_maxflow_unreachable () =
  let g = Digraph.of_edges 3 [ (0, 1, 1.) ] in
  Alcotest.(check int) "unreachable" 0 (Maxflow.edge_disjoint_capacity g ~src:0 ~dst:2)

let test_maxflow_infinite_edges_ignored () =
  let g = Digraph.of_edges 3 [ (0, 1, infinity); (1, 2, 1.); (0, 2, 1.) ] in
  Alcotest.(check int) "inf edge dropped" 1 (Maxflow.edge_disjoint_capacity g ~src:0 ~dst:2);
  Alcotest.(check int) "inf edge kept on demand" 2
    (Maxflow.edge_disjoint_capacity ~ignore_infinite:false g ~src:0 ~dst:2)

let test_maxflow_paths_are_disjoint () =
  let g = Digraph.of_edges 4 [ (0, 1, 1.); (0, 2, 1.); (1, 3, 1.); (2, 3, 1.); (1, 2, 1.) ] in
  let ps = Maxflow.disjoint_paths g ~src:0 ~dst:3 in
  Alcotest.(check int) "two paths" 2 (List.length ps);
  (match ps with
  | [ a; b ] ->
      Alcotest.(check bool) "edge disjoint" true (Path.edge_disjoint a b);
      List.iter
        (fun p ->
          Alcotest.(check (option int)) "src" (Some 0) (Path.source p);
          Alcotest.(check (option int)) "dst" (Some 3) (Path.destination p))
        ps
  | _ -> Alcotest.fail "expected two paths")

let test_maxflow_validation () =
  let g = Digraph.create 3 in
  Alcotest.(check bool) "src=dst" true
    (try ignore (Maxflow.edge_disjoint_capacity g ~src:1 ~dst:1); false
     with Invalid_argument _ -> true)

(* Menger cross-check: capacity from max-flow equals the brute-force
   maximum disjoint selection out of all simple paths on small graphs. *)
let prop_maxflow_menger =
  QCheck2.Test.make ~name:"maxflow: matches brute-force disjoint selection" ~count:80
    random_graph_gen (fun (n, edges) ->
      let g = Digraph.of_edges n edges in
      let src = 0 and dst = n - 1 in
      let cap = Maxflow.edge_disjoint_capacity g ~src ~dst in
      let all = List.map snd (all_simple_paths g src dst) in
      (* Exponential in theory; graphs are tiny.  Greedy over all
         orderings is too costly, so we do exact search with pruning. *)
      let best = ref 0 in
      let rec go chosen = function
        | [] -> best := Int.max !best (List.length chosen)
        | p :: rest ->
            if List.length chosen + List.length rest + 1 > !best then begin
              if List.for_all (Path.edge_disjoint p) chosen then go (p :: chosen) rest;
              go chosen rest
            end
      in
      if List.length all <= 18 then begin
        go [] all;
        cap = !best
      end
      else true)

let () =
  Alcotest.run "netgraph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick test_digraph_basic;
          Alcotest.test_case "edge overwrite" `Quick test_digraph_overwrite;
          Alcotest.test_case "set_weight" `Quick test_digraph_set_weight;
          Alcotest.test_case "self loops rejected" `Quick test_digraph_rejects_self_loop;
          Alcotest.test_case "degrees" `Quick test_digraph_degrees;
          Alcotest.test_case "transpose" `Quick test_digraph_transpose;
          Alcotest.test_case "reachability" `Quick test_digraph_reachable;
          Alcotest.test_case "copy independence" `Quick test_digraph_copy_independent;
          Alcotest.test_case "undirected helper" `Quick test_digraph_undirected;
          qt prop_digraph_matches_reference;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "shortest path" `Quick test_dijkstra_shortest;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "banned node" `Quick test_dijkstra_banned_node;
          Alcotest.test_case "banned edge" `Quick test_dijkstra_banned_edge;
          Alcotest.test_case "infinite weights skipped" `Quick
            test_dijkstra_infinite_weight_skipped;
          Alcotest.test_case "src = dst" `Quick test_dijkstra_src_eq_dst;
          Alcotest.test_case "negative weights rejected" `Quick
            test_dijkstra_negative_weight_rejected;
          qt prop_dijkstra_vs_bellman_ford;
        ] );
      ( "path",
        [
          Alcotest.test_case "edges and length" `Quick test_path_edges_length;
          Alcotest.test_case "validity" `Quick test_path_validity;
          Alcotest.test_case "cost" `Quick test_path_cost;
          Alcotest.test_case "endpoints" `Quick test_path_endpoints;
          Alcotest.test_case "disjointness" `Quick test_path_disjointness;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "diamond" `Quick test_maxflow_diamond;
          Alcotest.test_case "bottleneck" `Quick test_maxflow_bottleneck;
          Alcotest.test_case "unreachable" `Quick test_maxflow_unreachable;
          Alcotest.test_case "infinite edges" `Quick test_maxflow_infinite_edges_ignored;
          Alcotest.test_case "paths disjoint" `Quick test_maxflow_paths_are_disjoint;
          Alcotest.test_case "validation" `Quick test_maxflow_validation;
          qt prop_maxflow_menger;
        ] );
      ( "yen",
        [
          Alcotest.test_case "worked example" `Quick test_yen_worked_example;
          Alcotest.test_case "k=1 is dijkstra" `Quick test_yen_k_one_is_dijkstra;
          Alcotest.test_case "unreachable" `Quick test_yen_unreachable;
          Alcotest.test_case "fewer than k paths" `Quick test_yen_fewer_than_k;
          Alcotest.test_case "argument validation" `Quick test_yen_rejects_bad_args;
          qt prop_yen_matches_brute_force;
          qt prop_yen_paths_simple_and_sorted;
        ] );
    ]
