module BB = Milp.Branch_bound
module Path = Netgraph.Path
module Comp = Components.Component

type route_result = { rr_req : int; rr_replica : int; rr_path : Path.t }

type t = {
  mip : BB.result;
  used_nodes : int array;
  devices : (int * Comp.t) array;
  active_edges : (int * int) array;
  routes : route_result array;
  dollar_cost : float;
  node_count : int;
  avg_current_ma : floatarray;
  lifetimes_years : floatarray;
  reachable_counts : int array;
}

let find_device devices i = Option.map snd (Array.find_opt (fun (j, _) -> j = i) devices)

let device_of sol i = find_device sol.devices i

let is_sink inst i =
  (Template.node inst.Instance.template i).Template.role = Comp.Sink

let lifetime_stats ?(exclude_sinks = true) inst sol agg =
  let values =
    List.filteri
      (fun k _ -> not (exclude_sinks && is_sink inst (fst sol.devices.(k))))
      (Float.Array.to_list sol.lifetimes_years)
  in
  match values with [] -> infinity | _ -> agg values

let avg_lifetime_years ?exclude_sinks inst sol =
  lifetime_stats ?exclude_sinks inst sol (fun vs ->
      List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs))

let min_lifetime_years ?exclude_sinks inst sol =
  lifetime_stats ?exclude_sinks inst sol (fun vs -> List.fold_left Float.min infinity vs)

let avg_reachable sol =
  let n = Array.length sol.reachable_counts in
  if n = 0 then 0.
  else Array.fold_left (fun a c -> a +. float_of_int c) 0. sol.reachable_counts /. float_of_int n

let total_avg_current_ma sol = Float.Array.fold_left ( +. ) 0. sol.avg_current_ma

(* ------------------------------------------------------------------ *)
(* Shared extraction: everything except the routes comes from the
   encoding context.                                                   *)
(* ------------------------------------------------------------------ *)

let rss_of inst sol i j =
  let tx =
    match device_of sol i with
    | Some c -> c.Comp.tx_power_dbm +. c.Comp.antenna_gain_dbi
    | None -> 0.
  in
  let rx = match device_of sol j with Some c -> c.Comp.antenna_gain_dbi | None -> 0. in
  -.inst.Instance.pl.(i).(j) +. tx +. rx

(* Physics-level per-node energy from the extracted routes. *)
let energy_metrics inst devices routes =
  let proto = inst.Instance.protocol in
  let bits = Energy.Tdma.packet_bits proto in
  let tx_links = Hashtbl.create 16 and rx_links = Hashtbl.create 16 in
  let push tbl node link =
    Hashtbl.replace tbl node (link :: Option.value ~default:[] (Hashtbl.find_opt tbl node))
  in
  (* Device lookup before the record exists. *)
  let sol_stub = find_device devices in
  let rss i j =
    let tx =
      match sol_stub i with Some c -> c.Comp.tx_power_dbm +. c.Comp.antenna_gain_dbi | None -> 0.
    in
    let rx = match sol_stub j with Some c -> c.Comp.antenna_gain_dbi | None -> 0. in
    -.inst.Instance.pl.(i).(j) +. tx +. rx
  in
  Array.iter
    (fun rr ->
      List.iter
        (fun (i, j) ->
          let snr = rss i j -. inst.Instance.noise_dbm in
          let etx =
            Radio.Link_budget.etx ~modulation:inst.Instance.modulation ~packet_bits:bits
              ~snr_db:snr ()
          in
          let airtime c = float_of_int bits /. (c.Comp.bit_rate_kbps *. 1000.) in
          (match sol_stub i with
          | Some c ->
              push tx_links i { Energy.Lifetime.etx; airtime_s = airtime c }
          | None -> ());
          match sol_stub j with
          | Some c -> push rx_links j { Energy.Lifetime.etx; airtime_s = airtime c }
          | None -> ())
        (Path.edges rr.rr_path))
    routes;
  Array.map
    (fun (i, c) ->
      let tx = Option.value ~default:[] (Hashtbl.find_opt tx_links i) in
      let rx = Option.value ~default:[] (Hashtbl.find_opt rx_links i) in
      let q = Energy.Lifetime.node_charge_per_period_mas c proto ~tx_links:tx ~rx_links:rx in
      let avg_ma = q /. proto.Energy.Tdma.report_period_s in
      let life =
        Energy.Lifetime.lifetime_s inst.Instance.battery ~avg_current_ma:avg_ma
        /. Energy.Lifetime.seconds_per_year
      in
      (avg_ma, life))
    devices

let reachability inst devices =
  match inst.Instance.requirements.Requirements.localization with
  | None -> [||]
  | Some loc ->
      let anchors = Template.find_role inst.Instance.template Comp.Anchor in
      Array.map
        (fun pt ->
          List.length
            (List.filter
               (fun i ->
                 match find_device devices i with
                 | None -> false
                 | Some c ->
                     let pl =
                       Radio.Channel.path_loss inst.Instance.channel
                         (Template.node inst.Instance.template i).Template.loc pt
                     in
                     -.pl +. c.Comp.tx_power_dbm +. c.Comp.antenna_gain_dbi
                     >= loc.Requirements.loc_min_rss_dbm)
               anchors))
        loc.Requirements.eval_points

let extract_base ctx (mip : BB.result) routes =
  let inst = Encode_common.instance ctx in
  let n = Template.nnodes inst.Instance.template in
  let bin v = BB.value mip v > 0.5 in
  let used = ref [] in
  for i = n - 1 downto 0 do
    if bin (Encode_common.node_use_var ctx i) then used := i :: !used
  done;
  let devices =
    Array.of_list
      (List.filter_map
         (fun i ->
           let chosen =
             List.find_opt (fun (_, v) -> bin v) (Encode_common.sizing_vars ctx i)
           in
           Option.map (fun (c, _) -> (i, c)) chosen)
         !used)
  in
  let active_edges =
    Array.of_list
      (List.sort compare
         (List.filter_map
            (fun ((i, j), v) -> if bin v then Some (i, j) else None)
            (Encode_common.edge_vars ctx)))
  in
  let dollar = Array.fold_left (fun acc (_, c) -> acc +. c.Comp.cost) 0. devices in
  let energy = energy_metrics inst devices routes in
  {
    mip;
    used_nodes = Array.of_list !used;
    devices;
    active_edges;
    routes;
    dollar_cost = dollar;
    node_count = List.length !used;
    avg_current_ma = Float.Array.map_from_array fst energy;
    lifetimes_years = Float.Array.map_from_array snd energy;
    reachable_counts = reachability inst devices;
  }

let of_approx (enc : Approx_encoding.t) mip =
  if mip.BB.solution = None then invalid_arg "Solution.of_approx: no incumbent";
  let bin v = BB.value mip v > 0.5 in
  let routes =
    Array.concat
      (List.map
      (fun (sel : Approx_encoding.route_selection) ->
          (Array.mapi
             (fun r svars ->
               let k = ref (-1) in
               Array.iteri (fun idx v -> if bin v then k := idx) svars;
               if !k < 0 then
                 invalid_arg "Solution.of_approx: replica slot without selected candidate";
               {
                 rr_req = sel.Approx_encoding.req_index;
                 rr_replica = r;
                 rr_path = sel.Approx_encoding.pool.(!k);
               })
             sel.Approx_encoding.slots))
      enc.Approx_encoding.selections)
  in
  extract_base enc.Approx_encoding.ctx mip routes

let of_full (enc : Full_encoding.t) mip =
  if mip.BB.solution = None then invalid_arg "Solution.of_full: no incumbent";
  let bin v = BB.value mip v > 0.5 in
  let inst = Encode_common.instance enc.Full_encoding.ctx in
  let routes =
    Array.of_list
      (List.map
      (fun (pv : Full_encoding.path_vars) ->
        let succ = Hashtbl.create 8 in
        List.iter
          (fun ((i, j), v) -> if bin v then Hashtbl.replace succ i j)
          pv.Full_encoding.edge_of_var;
        let route = List.nth inst.Instance.requirements.Requirements.routes pv.Full_encoding.req_index in
        let rec follow acc node guard =
          if guard > Template.nnodes inst.Instance.template then
            invalid_arg "Solution.of_full: cyclic path extraction"
          else if node = route.Requirements.dst then List.rev (node :: acc)
          else
            match Hashtbl.find_opt succ node with
            | Some next -> follow (node :: acc) next (guard + 1)
            | None -> invalid_arg "Solution.of_full: broken path"
        in
        {
          rr_req = pv.Full_encoding.req_index;
          rr_replica = pv.Full_encoding.replica;
          rr_path = follow [] route.Requirements.src 0;
        })
      enc.Full_encoding.paths)
  in
  extract_base enc.Full_encoding.ctx mip routes

(* ------------------------------------------------------------------ *)
(* Independent validation                                              *)
(* ------------------------------------------------------------------ *)

let check inst sol =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let reqs = inst.Instance.requirements in
  let routes_arr = Array.of_list reqs.Requirements.routes in
  (* Routes. *)
  Array.iter
    (fun rr ->
      let r = routes_arr.(rr.rr_req) in
      if not (Path.is_valid inst.Instance.graph rr.rr_path) then
        err "route %d/%d: invalid path" rr.rr_req rr.rr_replica;
      if Path.source rr.rr_path <> Some r.Requirements.src then
        err "route %d/%d: wrong source" rr.rr_req rr.rr_replica;
      if Path.destination rr.rr_path <> Some r.Requirements.dst then
        err "route %d/%d: wrong destination" rr.rr_req rr.rr_replica;
      List.iter
        (fun { Requirements.hop_sense; hops } ->
          let h = Path.length rr.rr_path in
          let ok =
            match hop_sense with `Le -> h <= hops | `Ge -> h >= hops | `Eq -> h = hops
          in
          if not ok then err "route %d/%d: hop bound violated (%d)" rr.rr_req rr.rr_replica h)
        (Instance.effective_hop_bounds inst r);
      (* Nodes on the path must be used with a device. *)
      List.iter
        (fun node ->
          if device_of sol node = None then
            err "route %d/%d: node %d lacks a device" rr.rr_req rr.rr_replica node)
        rr.rr_path)
    sol.routes;
  (* Replica counts and disjointness. *)
  Array.iteri
    (fun idx (r : Requirements.route) ->
      let members = List.filter (fun rr -> rr.rr_req = idx) (Array.to_list sol.routes) in
      if List.length members <> r.Requirements.replicas then
        err "route %d: %d replicas extracted, %d required" idx (List.length members)
          r.Requirements.replicas;
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b ->
                if not (Path.edge_disjoint a.rr_path b.rr_path) then
                  err "route %d: replicas %d and %d share a link" idx a.rr_replica b.rr_replica)
              rest;
            pairs rest
      in
      pairs members)
    routes_arr;
  (* Link quality on every link of every route. *)
  let floor = inst.Instance.noise_dbm +. Instance.min_snr_db inst in
  Array.iter
    (fun rr ->
      List.iter
        (fun (i, j) ->
          let rss = rss_of inst sol i j in
          if rss < floor -. 1e-6 then
            err "link (%d, %d): RSS %.1f dBm below floor %.1f" i j rss floor)
        (Path.edges rr.rr_path))
    sol.routes;
  (* Lifetime. *)
  (match reqs.Requirements.min_lifetime_years with
  | None -> ()
  | Some years ->
      Float.Array.iteri
        (fun k y ->
          let i = fst sol.devices.(k) in
          if (not (is_sink inst i)) && y < years -. 1e-9 then
            err "node %d: lifetime %.2f y below requirement %.2f y" i y years)
        sol.lifetimes_years);
  (* Localization coverage. *)
  (match reqs.Requirements.localization with
  | None -> ()
  | Some loc ->
      Array.iteri
        (fun j c ->
          if c < loc.Requirements.min_anchors then
            err "eval point %d: covered by %d anchors, %d required" j c
              loc.Requirements.min_anchors)
        sol.reachable_counts);
  (* Sizing / fixed nodes. *)
  Array.iteri
    (fun i (n : Template.node) ->
      if n.Template.fixed && not (Array.mem i sol.used_nodes) then
        err "fixed node %d (%s) unused" i n.Template.name)
    (Template.nodes inst.Instance.template);
  Array.iter
    (fun (i, (c : Comp.t)) ->
      if c.Comp.role <> (Template.node inst.Instance.template i).Template.role then
        err "node %d: device role mismatch" i)
    sol.devices;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp_summary inst ppf sol =
  Format.fprintf ppf
    "@[<v>status: %s@ nodes: %d@ cost: $%.0f@ avg lifetime: %.2f y@ avg current: %.3f mA@ routes: %d@ reachable: %.2f@]"
    (Milp.Status.mip_status_to_string sol.mip.BB.status)
    sol.node_count sol.dollar_cost (avg_lifetime_years inst sol) (total_avg_current_ma sol)
    (Array.length sol.routes) (avg_reachable sol)
