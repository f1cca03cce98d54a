(* Certification of every outcome from outside the solver, instance
   identity, and the determinism guard. *)

open Archex
module BB = Milp.Branch_bound
module Model = Milp.Model

let tol = 1e-6

(* Largest violation of a row, a bound or integrality by [x]. *)
let max_violation model x =
  let worst = ref 0. in
  let bump v = if v > !worst then worst := v in
  Model.iter_constrs
    (fun _ (c : Model.constr) ->
      let lhs = Milp.Lin.eval (fun v -> x.(v)) c.Model.c_expr -. Milp.Lin.constant c.Model.c_expr in
      match c.Model.c_sense with
      | Model.Le -> bump (lhs -. c.Model.c_rhs)
      | Model.Ge -> bump (c.Model.c_rhs -. lhs)
      | Model.Eq -> bump (Float.abs (lhs -. c.Model.c_rhs)))
    model;
  for v = 0 to Model.nvars model - 1 do
    bump (Model.var_lb model v -. x.(v));
    bump (x.(v) -. Model.var_ub model v);
    if Model.is_integer model v then bump (Float.abs (x.(v) -. Float.round x.(v)))
  done;
  !worst

let close a b = Float.abs (a -. b) <= tol *. Float.max 1. (Float.abs a)

(* [bound] does not beat [objective] in the model's direction. *)
let bound_ok direction ~objective ~bound =
  match direction with
  | Model.Minimize -> bound <= objective +. (tol *. Float.max 1. (Float.abs objective))
  | Model.Maximize -> bound >= objective -. (tol *. Float.max 1. (Float.abs objective))

let gap_closed ~(options : BB.options) ~objective ~bound =
  let d = Float.abs (objective -. bound) in
  d <= options.BB.abs_gap +. 1e-9
  || d /. Float.max (Float.abs objective) 1e-12 <= options.BB.rel_gap +. 1e-9

(* Certify one solve: the incumbent is feasible for the original model,
   its objective recomputes from [Model.objective], the bound does not
   beat it, [Optimal] comes with a closed gap, and [Solution.check]
   passes.  [require_optimal] additionally demands a proof.  Returns
   the incumbent's largest violation. *)
let outcome ~require_optimal ~options inst (o : Outcome.t) =
  let mip = o.Outcome.mip in
  match (mip.BB.solution, o.Outcome.solution) with
  | None, _ | _, None -> Error "no incumbent"
  | Some x, Some sol -> (
      let model = o.Outcome.model in
      let direction, obj = Model.objective model in
      let recomputed = Milp.Lin.eval (fun v -> x.(v)) obj in
      let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
      match Model.check_feasible model (fun v -> x.(v)) with
      | Error e -> err "infeasible incumbent: %s" e
      | Ok () ->
          if not (close recomputed mip.BB.objective) then
            err "objective %.9g recomputes to %.9g" mip.BB.objective recomputed
          else if not (bound_ok direction ~objective:mip.BB.objective ~bound:mip.BB.bound) then
            err "bound %.9g beats objective %.9g" mip.BB.bound mip.BB.objective
          else if
            mip.BB.status = Milp.Status.Mip_optimal
            && not (gap_closed ~options ~objective:mip.BB.objective ~bound:mip.BB.bound)
          then err "optimal with open gap (%.9g vs %.9g)" mip.BB.objective mip.BB.bound
          else if require_optimal && mip.BB.status <> Milp.Status.Mip_optimal then
            err "status %s, expected optimal" (Milp.Status.mip_status_to_string mip.BB.status)
          else
            match Solution.check inst sol with
            | Error vs -> err "Solution.check: %s" (String.concat "; " vs)
            | Ok () -> Ok (max_violation model x))

(* A daemon [Result] frame against the status and objective rules (the
   catalogue objectives all minimize). *)
let result_frame ~rel_gap (r : Server.Protocol.result_info) =
  let open Server.Protocol in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if not (Float.is_finite r.r_objective && Float.is_finite r.r_bound) then
    err "status %s without finite objective/bound" r.r_status
  else if not (bound_ok Model.Minimize ~objective:r.r_objective ~bound:r.r_bound) then
    err "bound %.9g beats objective %.9g" r.r_bound r.r_objective
  else
    match r.r_status with
    | "optimal" ->
        let options = { BB.default_options with BB.rel_gap } in
        if gap_closed ~options ~objective:r.r_objective ~bound:r.r_bound then Ok ()
        else err "optimal with open gap (%.9g vs %.9g)" r.r_objective r.r_bound
    | s -> err "status %s, expected optimal" s

(* Model identity: size, nonzeros and a digest of its LP-format text. *)
type fingerprint = { nvars : int; nconstrs : int; nnz : int; digest : string }

let fingerprint model =
  let nnz = ref 0 in
  Model.iter_constrs (fun _ c -> nnz := !nnz + Milp.Lin.nterms c.Model.c_expr) model;
  {
    nvars = Model.nvars model;
    nconstrs = Model.nconstrs model;
    nnz = !nnz;
    digest = Digest.to_hex (Digest.string (Milp.Lp_format.to_string model));
  }

let fingerprint_json f =
  Json.Obj
    [
      ("nvars", Json.Int f.nvars);
      ("nconstrs", Json.Int f.nconstrs);
      ("nnz", Json.Int f.nnz);
      ("lp_digest", Json.String f.digest);
    ]

(* Peak resident set, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec loop () =
          match input_line ic with
          | line when String.starts_with ~prefix:"VmHWM:" line ->
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.)
          | _ -> loop ()
        in
        loop ())
  in
  try from_proc ()
  with _ -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Cross-run determinism record: per operation id, the node and
   LP-iteration counts of the last run of this workload and seed with
   the same harness binary.  A later run that disagrees is a failure. *)
let run_dir = ".perfbench_run"

let ensure_run_dir () = if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755

let counts_guard ~workload ~seed (counts : (string * int * int) list) =
  ensure_run_dir ();
  let file = Filename.concat run_dir (Printf.sprintf "counts-%s-seed%d.txt" workload seed) in
  let binary = Digest.to_hex (Digest.file Sys.executable_name) in
  let previous =
    if not (Sys.file_exists file) then []
    else
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match input_line ic with
          | b when b = binary ->
              let rec loop acc =
                match input_line ic with
                | line -> (
                    match String.split_on_char '\t' line with
                    | [ id; n; it ] -> loop ((id, (int_of_string n, int_of_string it)) :: acc)
                    | _ -> loop acc)
                | exception End_of_file -> acc
              in
              loop []
          | _ | (exception End_of_file) -> [])
  in
  let mismatches =
    List.filter_map
      (fun (id, n, it) ->
        match List.assoc_opt id previous with
        | Some (n', it') when n' <> n || it' <> it ->
            Some (Printf.sprintf "%s: %d nodes / %d LP iterations, earlier run %d / %d" id n it n' it')
        | _ -> None)
      counts
  in
  let merged =
    List.fold_left
      (fun acc (id, n, it) -> (id, (n, it)) :: List.remove_assoc id acc)
      previous counts
  in
  let oc = open_out file in
  output_string oc (binary ^ "\n");
  List.iter (fun (id, (n, it)) -> Printf.fprintf oc "%s\t%d\t%d\n" id n it) (List.rev merged);
  close_out oc;
  mismatches
