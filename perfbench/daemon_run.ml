(* An in-process archexd core driven by closed-loop clients over its
   Unix socket. *)

module D = Server.Daemon
module C = Server.Client
module P = Server.Protocol

let workers = 2
let clients = 2
let capacity = 4

let socket_counter = ref 0

(* Relative, so the socket lives in the run directory and its path
   stays well below the sun_path limit. *)
let fresh_socket () =
  Check.ensure_run_dir ();
  incr socket_counter;
  Filename.concat Check.run_dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) !socket_counter)

type t = { d : D.t; thread : Thread.t; clean : bool ref; socket : string }

(* Create a daemon and wait for its first [Pong]; returns the daemon
   and the create-to-Pong time. *)
let start () =
  let socket = fresh_socket () in
  let t0 = Milp.Clock.now () in
  let config =
    {
      D.c_socket = socket;
      c_workers = workers;
      c_max_active = clients;
      c_max_waiting = 4;
      c_cache_capacity = capacity;
      c_time_limit = Pipeline.time_limit;
      c_drain_timeout = 30.;
      c_verbose = false;
    }
  in
  match D.create config with
  | Error e -> failwith ("daemon create: " ^ e)
  | Ok d ->
      let clean = ref false in
      let thread = Thread.create (fun () -> clean := D.run d) () in
      let conn = match C.connect socket with Ok c -> c | Error e -> failwith ("connect: " ^ e) in
      let pong = C.ping conn in
      let setup = Milp.Clock.now () -. t0 in
      C.disconnect conn;
      (match pong with
      | Ok (P.Pong _) -> ()
      | Ok _ -> failwith "ping: unexpected frame"
      | Error e -> failwith ("ping: " ^ e));
      ({ d; thread; clean; socket }, setup)

(* Drain and join; [false] if the drain leaked. *)
let stop t =
  D.request_shutdown t.d;
  Thread.join t.thread;
  (try Sys.remove t.socket with Sys_error _ -> ());
  !(t.clean)

type reply = {
  index : int;
  request : Workloads.request;
  latency_s : float;
  first_frame_s : float;  (** First frame carrying an objective: an [Update] or the terminal one. *)
  response : (P.response, string) result;
}

let overrides =
  {
    P.no_overrides with
    P.o_time_limit = Some Pipeline.time_limit;
    o_rel_gap = Some Pipeline.rel_gap;
    o_workers = Some 1;
    o_stream = true;
  }

(* A request with no reply after this long means the daemon stalled:
   normal requests here answer within about a second. *)
let stall_s = 60.

(* Serve the request [sweeps] from [clients] closed-loop connections:
   each claims the next unclaimed sweep and sends its requests in
   order, each once the previous reply arrived.  Requests are numbered
   in stream order.  Returns the replies, the serving wall time, and
   the indices of the requests of claimed sweeps still unanswered when
   the stream stalled (the stream then stops; their client threads are
   abandoned). *)
let serve t (sweeps : Workloads.request array array) =
  let nsweeps = Array.length sweeps in
  let offset = Array.make (nsweeps + 1) 0 in
  Array.iteri (fun s sw -> offset.(s + 1) <- offset.(s) + Array.length sw) sweeps;
  let replies = Array.make offset.(nsweeps) None in
  let next = Atomic.make 0 and done_clients = Atomic.make 0 and answered = Atomic.make 0 in
  let send conn i q =
    let t0 = Milp.Clock.now () in
    let first = ref nan in
    let on_update ~objective:_ ~bound:_ ~elapsed_s:_ =
      if Float.is_nan !first then first := Milp.Clock.now () -. t0
    in
    let response =
      Span.record ~req:(i + 1) "op" (fun parent ->
          Span.record ~parent ~req:(i + 1) "client.solve" (fun _ ->
              C.solve ~on_update conn
                (P.Workload { name = q.Workloads.q_name; kstar = q.Workloads.q_kstar })
                overrides))
    in
    let latency_s = Milp.Clock.now () -. t0 in
    replies.(i) <-
      Some
        {
          index = i;
          request = q;
          latency_s;
          first_frame_s = (if Float.is_nan !first then latency_s else !first);
          response;
        };
    Atomic.incr answered
  in
  let client () =
    Fun.protect
      ~finally:(fun () -> Atomic.incr done_clients)
      (fun () ->
        match C.connect t.socket with
        | Error e -> failwith ("connect: " ^ e)
        | Ok conn ->
            let rec loop () =
              let s = Atomic.fetch_and_add next 1 in
              if s < nsweeps then begin
                Array.iteri (fun j q -> send conn (offset.(s) + j) q) sweeps.(s);
                loop ()
              end
            in
            Fun.protect ~finally:(fun () -> C.disconnect conn) loop)
  in
  let t0 = Milp.Clock.now () in
  let threads = List.init clients (fun _ -> Thread.create client ()) in
  (* Wait for the clients, watching for a stall: threads blocked on a
     reply that never comes cannot be joined. *)
  let rec wait last progress_at =
    if Atomic.get done_clients = clients then `Done
    else begin
      Thread.delay 0.02;
      let a = Atomic.get answered in
      let now = Milp.Clock.now () in
      if a <> last then wait a now
      else if now -. progress_at > stall_s then `Stalled
      else wait last progress_at
    end
  in
  let outcome = wait 0 t0 in
  let wall = Milp.Clock.now () -. t0 in
  let stalled =
    match outcome with
    | `Done ->
        List.iter Thread.join threads;
        []
    | `Stalled ->
        List.filter (fun i -> replies.(i) = None) (List.init offset.(min nsweeps (Atomic.get next)) Fun.id)
  in
  (Array.to_list replies |> List.filter_map Fun.id, wall, stalled)

(* Check every reply: transport errors and [Rejected]/[Error_msg]/
   [Interrupted] frames fail; [Result] frames must pass the status and
   objective rules; a cold miss must reproduce the objective of any
   other cold miss on the same scenario and K*; a warm hit may not be
   worse than every cold answer on its scenario (its session was built
   by one of those misses, and a session's pools and incumbent only
   improve).  Client-side completion order is not the daemon's serve
   order, so no check depends on it. *)
let check replies =
  let cold = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match r.response with
      | Ok (P.Result info) when not info.P.r_cache_hit ->
          let key = (r.request.Workloads.q_name, r.request.Workloads.q_kstar) in
          if not (Hashtbl.mem cold key) then Hashtbl.add cold key info.P.r_objective
      | _ -> ())
    replies;
  let worst_cold name =
    Hashtbl.fold (fun (n, _) o acc -> if n = name then Float.max o acc else acc) cold neg_infinity
  in
  List.map
    (fun r ->
      let q = r.request in
      let outcome =
        match r.response with
        | Error e -> Error ("transport: " ^ e)
        | Ok (P.Result info) -> (
            let obj = info.P.r_objective in
            match Check.result_frame ~rel_gap:Pipeline.rel_gap info with
            | Error e -> Error e
            | Ok () when not info.P.r_cache_hit -> (
                match Hashtbl.find_opt cold (q.Workloads.q_name, q.Workloads.q_kstar) with
                | Some o when not (Check.close o obj) ->
                    Error (Printf.sprintf "cold objective %.9g, other cold miss %.9g" obj o)
                | _ -> Ok info)
            | Ok () ->
                let w = worst_cold q.Workloads.q_name in
                if obj > w +. (Check.tol *. Float.max 1. (Float.abs w)) then
                  Error (Printf.sprintf "warm objective %.9g worse than every cold answer (worst %.9g)" obj w)
                else Ok info)
        | Ok (P.Rejected m) -> Error ("rejected: " ^ m)
        | Ok (P.Error_msg m) -> Error ("error frame: " ^ m)
        | Ok (P.Interrupted _) -> Error "interrupted"
        | Ok _ -> Error "unexpected frame"
      in
      (r, outcome))
    replies
