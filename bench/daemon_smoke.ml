(* Daemon smoke: start an archexd core in-process, submit the Table-1
   scenarios (test scale) over its Unix socket, and assert objective
   parity with the one-shot [Solve.run] path to 1e-6 — also for a
   larger K* on a cached session, which the daemon serves by growing
   it ([Session.grow] on a cache hit).  Both sides
   solve at rel_gap 1e-6 so parity compares proved optima, not
   incumbents two different searches happened to stop at.

   Exits nonzero on any mismatch, and on a failed drain — the daemon
   joining its pool domains and handler threads is part of the check
   (a leaked domain shows up as [Daemon.run] returning false).

   Run with:  dune exec bench/daemon_smoke.exe  (or @daemon-smoke) *)

let socket_path =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "archexd-smoke-%d.sock" (Unix.getpid ()))

let smoke_kstar = 4
let smoke_gap = 1e-6
let smoke_time_limit = 240.

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Format.printf "FAIL: %s@." s)
    fmt

(* The request a client sends and the equivalent local config must
   describe the same solve; [Daemon.request_config] builds the server
   side from these same pieces. *)
let overrides =
  {
    Server.Protocol.no_overrides with
    Server.Protocol.o_time_limit = Some smoke_time_limit;
    o_rel_gap = Some smoke_gap;
  }

let oneshot_config k =
  Archex.Solver_config.(
    default
    |> with_approx ~kstar:k ()
    |> with_time_limit smoke_time_limit
    |> with_rel_gap smoke_gap)

let oneshot ?(kstar = smoke_kstar) w =
  match Archex.Scenario.instance w with
  | Error e -> Error ("scenario: " ^ e)
  | Ok inst -> (
      match Archex.Solve.run (oneshot_config kstar) inst with
      | Error e -> Error ("encode: " ^ e)
      | Ok out ->
          Ok
            ( Milp.Status.mip_status_to_string out.Archex.Outcome.status,
              out.Archex.Outcome.mip.Milp.Branch_bound.objective ))

let submit ?(kstar = smoke_kstar) conn name =
  Server.Client.solve conn (Server.Protocol.Workload { name; kstar }) overrides

let () =
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.c_socket = socket_path;
      c_workers = 2;
      c_cache_capacity = 4;
      c_time_limit = smoke_time_limit;
      c_verbose = false;
    }
  in
  match Server.Daemon.create config with
  | Error e ->
      Format.printf "FAIL: daemon start: %s@." e;
      exit 1
  | Ok d ->
      Format.printf "daemon smoke: %d pool domains, socket %s@."
        (Server.Daemon.workers d) socket_path;
      let clean = ref false in
      let dthread = Thread.create (fun () -> clean := Server.Daemon.run d) () in
      (match Server.Client.connect socket_path with
      | Error e -> fail "connect: %s" e
      | Ok conn ->
          Fun.protect
            ~finally:(fun () -> Server.Client.disconnect conn)
            (fun () ->
              (match Server.Client.ping conn with
              | Ok (Server.Protocol.Pong { workers; _ }) ->
                  if workers <> Server.Daemon.workers d then
                    fail "ping reports %d workers, daemon has %d" workers
                      (Server.Daemon.workers d)
              | Ok _ -> fail "ping: unexpected response frame"
              | Error e -> fail "ping: %s" e);
              List.iter
                (fun name ->
                  match Archex.Scenario.find name with
                  | Error e -> fail "%s: %s" name e
                  | Ok w -> (
                      match (submit conn name, oneshot w) with
                      | Error e, _ -> fail "%s: submit: %s" name e
                      | _, Error e -> fail "%s: one-shot: %s" name e
                      | Ok (Server.Protocol.Result r), Ok (lstatus, lobj) ->
                          let diff =
                            Float.abs (r.Server.Protocol.r_objective -. lobj)
                          in
                          Format.printf
                            "%-16s daemon %s %.6g (%d nodes) | one-shot %s %.6g | |diff| %.3g@."
                            name r.Server.Protocol.r_status
                            r.Server.Protocol.r_objective r.Server.Protocol.r_nodes
                            lstatus lobj diff;
                          if diff > 1e-6 then
                            fail "%s: daemon and one-shot objectives differ by %g"
                              name diff;
                          if r.Server.Protocol.r_status <> "optimal" then
                            fail "%s: daemon status %s" name
                              r.Server.Protocol.r_status
                      | Ok resp, Ok _ ->
                          fail "%s: unexpected daemon response: %s" name
                            (match resp with
                            | Server.Protocol.Rejected m -> "rejected: " ^ m
                            | Server.Protocol.Error_msg m -> "error: " ^ m
                            | Server.Protocol.Interrupted _ -> "interrupted"
                            | _ -> "wrong frame")))
                [ "dc-small-dollar"; "dc-small-energy"; "dc-small-mixed" ];
              (* A repeat must hit the warm session and land on the same
                 objective; a larger K* must hit it too, grow it, and
                 land on the one-shot optimum at that K*. *)
              (match submit conn "dc-small-energy" with
              | Ok (Server.Protocol.Result r) ->
                  if not r.Server.Protocol.r_cache_hit then
                    fail "repeat request missed the session cache";
                  Format.printf "%-16s repeat: %s %.6g (%s)@." "dc-small-energy"
                    r.Server.Protocol.r_status r.Server.Protocol.r_objective
                    (if r.Server.Protocol.r_cache_hit then "warm" else "cold")
              | Ok _ -> fail "repeat request: unexpected response frame"
              | Error e -> fail "repeat request: %s" e);
              let kstar = smoke_kstar + 1 in
              match
                ( submit ~kstar conn "dc-small-energy",
                  Result.bind (Archex.Scenario.find "dc-small-energy") (oneshot ~kstar) )
              with
              | Ok (Server.Protocol.Result r), Ok (lstatus, lobj) ->
                  let diff = Float.abs (r.Server.Protocol.r_objective -. lobj) in
                  Format.printf "%-16s grow to K*=%d: %s %.6g (%s) | one-shot %s %.6g@."
                    "dc-small-energy" kstar r.Server.Protocol.r_status
                    r.Server.Protocol.r_objective
                    (if r.Server.Protocol.r_cache_hit then "warm" else "cold")
                    lstatus lobj;
                  if not r.Server.Protocol.r_cache_hit then
                    fail "K*=%d request missed the session cache" kstar;
                  if diff > 1e-6 then
                    fail "K*=%d: grown session and one-shot objectives differ by %g" kstar diff
              | Ok _, Ok _ -> fail "K*=%d request: unexpected response frame" kstar
              | Error e, _ -> fail "K*=%d request: %s" kstar e
              | _, Error e -> fail "K*=%d one-shot: %s" kstar e));
      (* The SIGTERM handler in bin/archexd.ml calls exactly this, so
         driving it directly exercises the drain path it triggers. *)
      Server.Daemon.request_shutdown d;
      Thread.join dthread;
      if not !clean then fail "drain leaked connections or domains";
      if !failures = 0 then begin
        Format.printf "daemon smoke: OK (clean drain)@.";
        exit 0
      end
      else begin
        Format.printf "daemon smoke: %d failure(s)@." !failures;
        exit 1
      end
