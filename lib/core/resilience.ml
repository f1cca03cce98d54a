type fault = Node_failure of int | Link_failure of int * int

type report = {
  fault : fault;
  surviving_routes : int;
  total_routes : int;
  lost_sources : int list;
}

let path_avoids fault path =
  match fault with
  | Node_failure n -> not (List.mem n path)
  | Link_failure (u, v) -> not (List.mem (u, v) (Netgraph.Path.edges path))

let route_survives (sol : Solution.t) ~req fault =
  let replicas =
    List.filter (fun rr -> rr.Solution.rr_req = req) (Array.to_list sol.Solution.routes)
  in
  replicas <> [] && List.exists (fun rr -> path_avoids fault rr.Solution.rr_path) replicas

let analyze inst (sol : Solution.t) fault =
  let nroutes = List.length inst.Instance.requirements.Requirements.routes in
  let routes = inst.Instance.requirements.Requirements.routes in
  let surviving = ref 0 and lost = ref [] in
  List.iteri
    (fun req (r : Requirements.route) ->
      if route_survives sol ~req fault then incr surviving
      else lost := r.Requirements.src :: !lost)
    routes;
  { fault; surviving_routes = !surviving; total_routes = nroutes; lost_sources = List.rev !lost }

let single_node_faults inst sol =
  let candidates =
    List.filter
      (fun i -> not (Template.node inst.Instance.template i).Template.fixed)
      (Array.to_list sol.Solution.used_nodes)
  in
  List.map (fun i -> analyze inst sol (Node_failure i)) candidates

let single_link_faults inst sol =
  List.map (fun (u, v) -> analyze inst sol (Link_failure (u, v)))
    (Array.to_list sol.Solution.active_edges)

let worst_case_survival reports =
  List.fold_left
    (fun acc r ->
      if r.total_routes = 0 then acc
      else Float.min acc (float_of_int r.surviving_routes /. float_of_int r.total_routes))
    1.0 reports

let pp_fault ppf = function
  | Node_failure n -> Format.fprintf ppf "node %d fails" n
  | Link_failure (u, v) -> Format.fprintf ppf "link (%d, %d) fails" u v

let pp_report ppf r =
  Format.fprintf ppf "%a: %d/%d routes survive%s" pp_fault r.fault r.surviving_routes
    r.total_routes
    (if r.lost_sources = [] then ""
     else
       Printf.sprintf " (lost sources: %s)"
         (String.concat ", " (List.map string_of_int r.lost_sources)))
