type params = { periods : int; max_retries : int; seed : int }

let default_params = { periods = 1000; max_retries = 8; seed = 7 }

type node_stats = {
  ns_node : int;
  ns_tx_attempts : int;
  ns_rx_packets : int;
  ns_charge_mas : float;
  ns_lifetime_years : float;
}

type t = {
  delivered : int;
  generated : int;
  delivery_ratio : float;
  mean_attempts_per_hop : float;
  node_stats : node_stats list;
  min_lifetime_years : float;
}

(* Per-hop packet success rate under the actual sizing. *)
let hop_psr inst (sol : Solution.t) i j =
  let tx =
    match Solution.device_of sol i with
    | Some c -> c.Components.Component.tx_power_dbm +. c.Components.Component.antenna_gain_dbi
    | None -> 0.
  in
  let rx =
    match Solution.device_of sol j with
    | Some c -> c.Components.Component.antenna_gain_dbi
    | None -> 0.
  in
  let rss = -.inst.Instance.pl.(i).(j) +. tx +. rx in
  let snr = rss -. inst.Instance.noise_dbm in
  Radio.Modulation.packet_success_rate inst.Instance.modulation ~snr_db:snr
    ~packet_bits:(Energy.Tdma.packet_bits inst.Instance.protocol)

let run ?(params = default_params) inst (sol : Solution.t) =
  let rng = Random.State.make [| params.seed |] in
  let proto = inst.Instance.protocol in
  let bits = Energy.Tdma.packet_bits proto in
  let tx_attempts = Hashtbl.create 16 and rx_packets = Hashtbl.create 16 in
  let bump tbl k n = Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let delivered = ref 0 and generated = ref 0 in
  let hop_attempts = ref 0 and hops_crossed = ref 0 in
  (* Pre-compute per-route hop PSRs. *)
  let routes =
    List.map
      (fun rr ->
        List.map (fun (i, j) -> (i, j, hop_psr inst sol i j)) (Netgraph.Path.edges rr.Solution.rr_path))
      (Array.to_list sol.Solution.routes)
  in
  for _ = 1 to params.periods do
    List.iter
      (fun hops ->
        incr generated;
        let alive = ref true in
        List.iter
          (fun (i, j, psr) ->
            if !alive then begin
              (* Retry until success or retry budget exhausted. *)
              let attempts = ref 0 in
              let through = ref false in
              while (not !through) && !attempts < params.max_retries do
                incr attempts;
                if Random.State.float rng 1.0 < psr then through := true
              done;
              bump tx_attempts i !attempts;
              hop_attempts := !hop_attempts + !attempts;
              if !through then begin
                incr hops_crossed;
                bump rx_packets j 1
              end
              else alive := false
            end)
          hops;
        if !alive then incr delivered)
      routes
  done;
  let total_time = float_of_int params.periods *. proto.Energy.Tdma.report_period_s in
  let node_stats =
    List.map
      (fun (i, (c : Components.Component.t)) ->
        let ntx = Option.value ~default:0 (Hashtbl.find_opt tx_attempts i) in
        let nrx = Option.value ~default:0 (Hashtbl.find_opt rx_packets i) in
        let airtime = float_of_int bits /. (c.Components.Component.bit_rate_kbps *. 1000.) in
        let radio =
          (float_of_int ntx *. airtime *. c.Components.Component.radio_tx_ma)
          +. (float_of_int nrx *. airtime *. c.Components.Component.radio_rx_ma)
        in
        let awake_s = float_of_int (ntx + nrx) *. proto.Energy.Tdma.slot_s in
        let active = c.Components.Component.active_ma *. awake_s in
        let sleep =
          c.Components.Component.sleep_ua /. 1000. *. Float.max 0. (total_time -. awake_s)
        in
        let charge = radio +. active +. sleep in
        let avg_ma = charge /. total_time in
        let life =
          Energy.Lifetime.lifetime_s inst.Instance.battery ~avg_current_ma:avg_ma
          /. Energy.Lifetime.seconds_per_year
        in
        {
          ns_node = i;
          ns_tx_attempts = ntx;
          ns_rx_packets = nrx;
          ns_charge_mas = charge;
          ns_lifetime_years = life;
        })
      (Array.to_list sol.Solution.devices)
  in
  let min_lifetime =
    List.fold_left
      (fun acc ns ->
        let role = (Template.node inst.Instance.template ns.ns_node).Template.role in
        if role = Components.Component.Sink then acc else Float.min acc ns.ns_lifetime_years)
      infinity node_stats
  in
  {
    delivered = !delivered;
    generated = !generated;
    delivery_ratio =
      (if !generated = 0 then 1.0 else float_of_int !delivered /. float_of_int !generated);
    mean_attempts_per_hop =
      (if !hops_crossed = 0 then 1.0 else float_of_int !hop_attempts /. float_of_int !hops_crossed);
    node_stats;
    min_lifetime_years = min_lifetime;
  }

let check_against_guarantees inst (_sol : Solution.t) sim =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let etx_bound = Instance.etx_bound inst in
  (* 5% sampling-noise allowance on the empirical ETX. *)
  if sim.mean_attempts_per_hop > (etx_bound *. 1.05) +. 0.05 then
    err "empirical ETX %.3f exceeds the encoder bound %.3f" sim.mean_attempts_per_hop etx_bound;
  (match inst.Instance.requirements.Requirements.min_lifetime_years with
  | Some years ->
      if sim.min_lifetime_years < years *. 0.95 then
        err "simulated lifetime %.2f y below the %.2f y requirement" sim.min_lifetime_years years
  | None -> ());
  if sim.delivery_ratio < 0.5 then
    err "delivery ratio %.2f suspiciously low for admitted links" sim.delivery_ratio;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
