type options = {
  time_limit : float;
  node_limit : int;
  rel_gap : float;
  abs_gap : float;
  presolve : bool;
  presolve_passes : Presolve.pass list;
  cutoff : float;
  warm_start : bool;
  cuts : bool;
  cut_families : Cuts.family list;
  max_applied_cuts : int;
  cut_max_age : int;
  cut_pool_size : int;
  cut_min_violation : float;
  rc_fixing : bool;
  pricing : Simplex.pricing;
  harris : bool;
  log : bool;
  nworkers : int;
  seed : int;
}

let default_options =
  {
    time_limit = 60.;
    node_limit = 200_000;
    rel_gap = 1e-6;
    abs_gap = 1e-9;
    presolve = true;
    presolve_passes = Presolve.all_passes;
    cutoff = nan;
    warm_start = true;
    cuts = true;
    cut_families = Cuts.all_families;
    max_applied_cuts = 32;
    cut_max_age = 5;
    cut_pool_size = 500;
    cut_min_violation = 1e-5;
    rc_fixing = true;
    pricing = Simplex.Devex;
    harris = true;
    log = false;
    nworkers = 1;
    seed = 0;
  }

type result = {
  status : Status.mip_status;
  objective : float;
  bound : float;
  solution : float array option;
  nodes : int;
  lp_iterations : int;
  lp_warm : int;
  lp_cold : int;
  lp_fallback : int;
  cuts_separated : int;
  cuts_applied : int;
  cuts_seeded : int;
  carry_cuts : Cuts.cut list;
  bound_pruned : int;
  rc_fixed : int;
  root_lp_bound : float;
  root_cut_bound : float;
  presolve_rows_removed : int;
  presolve_cols_removed : int;
  presolve_reapplied : bool;
  elapsed : float;
}

(* Cross-solve presolve memory for an incremental session: the trace of
   the last reduction, replayed against the next solve's row delta
   ([touched_rows]) instead of propagating the template from scratch. *)
type presolve_state = { mutable ps_trace : Presolve.trace option }

let create_presolve_state () = { ps_trace = None }

let gap r =
  match r.solution with
  | None -> infinity
  | Some _ ->
      if Float.abs r.objective < 1e-12 then Float.abs (r.objective -. r.bound)
      else Float.abs (r.objective -. r.bound) /. Float.abs r.objective

let value r v =
  match r.solution with
  | Some x -> x.(v)
  | None -> invalid_arg "Branch_bound.value: no incumbent solution"

(* A node stores only its bound-change path from the root; bounds arrays
   are materialized on demand (cheap relative to the LP solve).  The
   parent's optimal basis rides along so the child LP can be re-solved
   by a few dual pivots instead of a cold two-phase solve. *)
type node = {
  nbound : float;
  changes : (int * float * float) list;
  nbasis : Basis.t option;
}

(* Per-drive tallies: the sequential drive owns one and each worker
   slot owns one, so nothing in it is shared; the worker records are
   summed into the sequential one after the join. *)
type tallies = {
  mutable t_nodes : int;
  mutable t_iters : int;
  mutable t_warm : int;
  mutable t_cold : int;
  mutable t_fallback : int;
  mutable t_pruned : int;
  mutable t_rc : int;
}

let new_tallies () =
  { t_nodes = 0; t_iters = 0; t_warm = 0; t_cold = 0; t_fallback = 0; t_pruned = 0; t_rc = 0 }

let absorb t u =
  t.t_nodes <- t.t_nodes + u.t_nodes;
  t.t_iters <- t.t_iters + u.t_iters;
  t.t_warm <- t.t_warm + u.t_warm;
  t.t_cold <- t.t_cold + u.t_cold;
  t.t_fallback <- t.t_fallback + u.t_fallback;
  t.t_pruned <- t.t_pruned + u.t_pruned;
  t.t_rc <- t.t_rc + u.t_rc

(* Every LP of a solve runs through here, booking its iterations and
   its warm/cold outcome on the caller's tallies. *)
let lp_solve (o : options) t ~ws ~deadline ?basis p ~lb ~ub =
  let r = Simplex.solve ?basis ~deadline ~pricing:o.pricing ~harris:o.harris ~ws p ~lb ~ub in
  t.t_iters <- t.t_iters + r.Simplex.iterations;
  (match r.Simplex.warm with
  | Simplex.Warm -> t.t_warm <- t.t_warm + 1
  | Simplex.Cold -> t.t_cold <- t.t_cold + 1
  | Simplex.Warm_fallback -> t.t_fallback <- t.t_fallback + 1);
  r

let src = Logs.Src.create "milp.bb" ~doc:"branch and bound"

module Log = (val Logs.src_log src : Logs.LOG)

(* Check a rounded candidate against the rows directly (much cheaper
   than a simplex call). *)
let rows_feasible (p : Simplex.problem) x tol =
  let ok = ref true in
  Array.iteri
    (fun i row ->
      if !ok then begin
        let lhs = Array.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0. row in
        let rhs = p.Simplex.rhs.(i) in
        match p.Simplex.senses.(i) with
        | Model.Le -> if lhs > rhs +. tol then ok := false
        | Model.Ge -> if lhs < rhs -. tol then ok := false
        | Model.Eq -> if Float.abs (lhs -. rhs) > tol then ok := false
      end)
    p.Simplex.rows;
  !ok

let objective_of (p : Simplex.problem) x =
  let acc = ref p.Simplex.obj_const in
  for j = 0 to p.Simplex.ncols - 1 do
    acc := !acc +. (p.Simplex.obj.(j) *. x.(j))
  done;
  !acc

let try_rounding p integer lb ub x tol =
  let n = p.Simplex.ncols in
  let y = Array.copy x in
  for j = 0 to n - 1 do
    if integer.(j) then y.(j) <- Float.round y.(j);
    if y.(j) < lb.(j) then y.(j) <- lb.(j);
    if y.(j) > ub.(j) then y.(j) <- ub.(j)
  done;
  if rows_feasible p y tol then Some y else None

(* Cheap bound propagation at a node: fixes implied binaries (edge/use
   variables implied by a selection, sizing rows, …) before paying for
   the LP.  [rows] is the flat image of the problem's rows, built once
   per problem.  Returns None when propagation proves the node
   infeasible. *)
let propagate rows integer lb ub =
  match Presolve.run_flat ~max_rounds:4 rows ~integer ~lb ~ub with
  | Presolve.Proven_infeasible _ -> None
  | Presolve.Feasible { lb; ub; _ } -> Some (lb, ub)

(* Integrality tolerance on LP solutions. *)
let int_tol = 1e-6

(* Root cut-loop round budget. *)
let cut_rounds = 20

(* Most fractional integer variable of an LP point; -1 when the point is
   integral to [int_tol]. *)
let most_fractional integer x =
  let best = ref (-1) and best_frac = ref int_tol in
  for j = 0 to Array.length integer - 1 do
    if integer.(j) then begin
      let f = x.(j) -. Float.floor x.(j) in
      let dist = Float.min f (1. -. f) in
      if dist > !best_frac then begin
        best := j;
        best_frac := dist
      end
    end
  done;
  !best

(* LP-guided diving heuristic: repeatedly fix the most fractional
   integer variable to its nearest integer and re-solve; on infeasibility
   try the opposite side once.  Returns an integral solution with its
   objective when the dive bottoms out.  This is what finds the first
   incumbent on covering-style models whose leaves are never integral
   under plain best-first search. *)
let dive (o : options) t ~ws ~deadline p rows integer lb0 ub0 (root : Simplex.result) max_lps =
  let n = p.Simplex.ncols in
  let lb = Array.copy lb0 and ub = Array.copy ub0 in
  let x = ref root.Simplex.primal in
  let obj = ref root.Simplex.objective in
  (* Each fix-and-resolve step tightens bounds on the previous optimum,
     so its basis warm starts the next LP of the dive. *)
  let basis = ref root.Simplex.basis in
  let lps = ref 0 in
  let rec go () =
    let j = most_fractional integer !x in
    if j < 0 then Some (Array.copy !x, !obj)
    else if !lps >= max_lps || Clock.now () > deadline then None
    else begin
      let v = Float.round !x.(j) in
      let try_fix value =
        let slb = Array.copy lb and sub = Array.copy ub in
        lb.(j) <- value;
        ub.(j) <- value;
        let restore () =
          Array.blit slb 0 lb 0 n;
          Array.blit sub 0 ub 0 n
        in
        match propagate rows integer lb ub with
        | None ->
            restore ();
            false
        | Some (plb, pub) ->
            Array.blit plb 0 lb 0 n;
            Array.blit pub 0 ub 0 n;
            incr lps;
            let r =
              lp_solve o t ~ws ~deadline
                ?basis:(if o.warm_start then !basis else None)
                p ~lb ~ub
            in
            if r.Simplex.status = Status.Lp_optimal then begin
              x := r.Simplex.primal;
              obj := r.Simplex.objective;
              basis := r.Simplex.basis;
              true
            end
            else begin
              restore ();
              false
            end
      in
      if try_fix v then go ()
      else begin
        let alt = if v <= !x.(j) then v +. 1. else v -. 1. in
        if alt >= lb.(j) -. 1e-9 && alt <= ub.(j) +. 1e-9 && try_fix alt then go () else None
      end
    end
  in
  go ()

(* The incumbent: an immutable pair swapped by compare-and-set, so
   worker domains may improve it too.  [i_sol = None] with a finite
   [i_obj] is a caller cutoff acting as a virtual incumbent. *)
type incumbent = { i_obj : float; i_sol : float array option }

let solve ?(options = default_options) ?(seed_cuts = []) ?(separators = [])
    ?warm_solution ?presolve_state ?touched_rows ?ws ?interrupt ?on_incumbent
    ?scheduler model =
  let t0 = Clock.now () in
  (* Cooperative cancellation: checked between nodes, exactly where the
     deadline is, so an interrupt behaves like a timeout — the search
     stops with its current incumbent and an honest (non-exhausted)
     bound.  [None] compiles to a constant [false] check and leaves the
     pinned sequential trees untouched. *)
  let stop_requested () = match interrupt with Some a -> Atomic.get a | None -> false in
  let p = Simplex.of_model model in
  let nfull = p.Simplex.ncols in
  let mfull = Array.length p.Simplex.rows in
  let direction = Model.direction model in
  let sign = match direction with Model.Minimize -> 1.0 | Model.Maximize -> -1.0 in
  let integer_full = Array.init nfull (Model.is_integer model) in
  let root_lb = Array.init nfull (Model.var_lb model) in
  let root_ub = Array.init nfull (Model.var_ub model) in
  (* One workspace for the whole sequential drive (root, cut loop,
     dives, node re-solves); worker domains get their own below.  An
     incremental session passes its own so the CSC image and solver
     buffers persist across the sweep. *)
  let sws = match ws with Some w -> w | None -> Simplex.create_workspace () in
  let pool =
    Cuts.create_pool ~max_age:options.cut_max_age ~max_size:options.cut_pool_size ()
  in
  (* Which separation families may run: the master [cuts] switch gates
     them all, the family list is the per-family ablation axis. *)
  let fam f = options.cuts && List.mem f options.cut_families in
  let cuts_seeded = ref 0 in
  (* Cuts that became problem rows this solve; together with the pool's
     survivors they form the carry-out for an incremental session. *)
  let applied_cuts = ref [] in
  (* Root LP objective before and after the cut loop (min form). *)
  let root_lp_bound = ref nan in
  let root_cut_bound = ref nan in
  let ps_reapplied = ref false in
  let post_ref = ref (Postsolve.identity ~ncols:nfull ~nrows:mfull) in
  let finish status ~objective ~bound ~solution t =
    let separated, applied = Cuts.stats pool in
    let post = !post_ref in
    {
      status;
      objective = sign *. objective;
      bound = sign *. bound;
      solution;
      nodes = t.t_nodes;
      lp_iterations = t.t_iters;
      lp_warm = t.t_warm;
      lp_cold = t.t_cold;
      lp_fallback = t.t_fallback;
      cuts_separated = separated;
      cuts_applied = applied;
      cuts_seeded = !cuts_seeded;
      carry_cuts =
        List.map (Cuts.lift post) (List.rev_append !applied_cuts (Cuts.members pool));
      bound_pruned = t.t_pruned;
      rc_fixed = t.t_rc;
      root_lp_bound = sign *. !root_lp_bound;
      root_cut_bound = sign *. !root_cut_bound;
      presolve_rows_removed = mfull - Array.length !post_ref.Postsolve.row_of_red;
      presolve_cols_removed = nfull - Array.length !post_ref.Postsolve.col_of_red;
      presolve_reapplied = !ps_reapplied;
      elapsed = Clock.now () -. t0;
    }
  in
  (* Columns referenced by carried-in cuts must survive the reduction
     (a substituted column cannot be folded back into a cut row). *)
  let essential =
    if seed_cuts = [] then None
    else begin
      let e = Array.make nfull false in
      List.iter
        (fun (c : Cuts.cut) ->
          Array.iter (fun (j, _) -> if j < nfull then e.(j) <- true) c.Cuts.c_row)
        seed_cuts;
      Some e
    end
  in
  (* Root reduction: the full presolve stack, or the identity when
     disabled.  In an incremental session the previous solve's trace is
     re-applied against the row delta instead of presolving the template
     from scratch. *)
  let reduced =
    if options.presolve then begin
      let reuse =
        match (presolve_state, touched_rows) with
        | Some st, Some touched -> Option.map (fun tr -> (tr, touched)) st.ps_trace
        | _ -> None
      in
      Presolve.reduce ~passes:options.presolve_passes ?essential ?reuse p
        ~integer:integer_full ~lb:root_lb ~ub:root_ub
    end
    else
      Presolve.Reduced
        {
          red_problem = p;
          red_integer = integer_full;
          red_lb = root_lb;
          red_ub = root_ub;
          red_post = Postsolve.identity ~ncols:nfull ~nrows:mfull;
          red_trace =
            {
              tr_ncols = nfull;
              tr_nrows = mfull;
              tr_lb0 = root_lb;
              tr_ub0 = root_ub;
              tr_lb = root_lb;
              tr_ub = root_ub;
              tr_events = [||];
              tr_active = Array.make mfull true;
            };
          red_stats =
            List.map
              (fun pass ->
                {
                  Presolve.ps_pass = pass;
                  ps_rows_removed = 0;
                  ps_cols_removed = 0;
                  ps_changes = 0;
                })
              Presolve.all_passes;
          red_reapplied = false;
        }
  in
  (match presolve_state with
  | Some st when options.presolve -> (
      match reduced with
      | Presolve.Reduced red -> st.ps_trace <- Some red.Presolve.red_trace
      | Presolve.Reduce_infeasible _ -> st.ps_trace <- None)
  | _ -> ());
  match reduced with
  | Presolve.Reduce_infeasible _ ->
      finish Status.Mip_infeasible ~objective:infinity ~bound:infinity ~solution:None
        (new_tallies ())
  | Presolve.Reduced red ->
      let p0 = red.Presolve.red_problem in
      let n = p0.Simplex.ncols in
      let integer = red.Presolve.red_integer in
      let plb = red.Presolve.red_lb and pub = red.Presolve.red_ub in
      let post = red.Presolve.red_post in
      post_ref := post;
      ps_reapplied := red.Presolve.red_reapplied;
      let m0 = Array.length p0.Simplex.rows in
      (* Working problem: the base rows plus every applied cut.  Cut
         rows are only ever appended, never removed, so a basis
         snapshotted when k cuts were active can be grown to the current
         row set by appending the rows it is missing. *)
      let pref = ref p0 in
      (* Flat row images for node propagation: one of [p0] for the whole
         solve, and one of the working problem, built when a dive first
         needs it after the last cut round changed the problem. *)
      let p0_rows = Presolve.flatten p0 in
      let pref_rows = ref (Some p0_rows) in
      let working_rows () =
        match !pref_rows with
        | Some r -> r
        | None ->
            let r = Presolve.flatten !pref in
            pref_rows := Some r;
            r
      in
      let cut_index = ref [||] in
      (* applied cut rows, append order *)
      let deadline = t0 +. options.time_limit in
      let append_cuts cs =
        let rows =
          List.map (fun (c : Cuts.cut) -> (c.Cuts.c_row, Model.Le, c.Cuts.c_rhs)) cs
        in
        applied_cuts := List.rev_append cs !applied_cuts;
        pref := Simplex.add_rows !pref rows;
        pref_rows := None;
        cut_index :=
          Array.append !cut_index
            (Array.of_list (List.map (fun (c : Cuts.cut) -> c.Cuts.c_row) cs))
      in
      let grow_for b cs =
        Basis.append_rows b
          (Array.of_list (List.map (fun (c : Cuts.cut) -> c.Cuts.c_row) cs))
      in
      (* Grow a snapshot across the cuts applied since it was taken; a
         basis too far behind is not worth the O(m'^2) catch-up and
         falls back to a cold solve. *)
      let upgrade_basis (b : Basis.t) =
        let cur = Array.length !pref.Simplex.rows in
        if b.Basis.nrows = cur then Some b
        else if b.Basis.nrows < m0 || cur - b.Basis.nrows > 48 then None
        else
          Some
            (Basis.append_rows b
               (Array.sub !cut_index (b.Basis.nrows - m0) (cur - b.Basis.nrows)))
      in
      let node_basis b = if options.warm_start then Option.bind b upgrade_basis else None in
      (* The sequential drive's tallies; each worker slot gets its own
         after the handoff, summed into these after the join. *)
      let st = new_tallies () in
      (* A caller-supplied cutoff acts as a virtual incumbent: it prunes
         but carries no solution vector. *)
      let inc =
        Atomic.make
          {
            i_obj = (if Float.is_nan options.cutoff then infinity else sign *. options.cutoff);
            i_sol = None;
          }
      in
      let queue : node Pqueue.t = Pqueue.create () in
      (* With every row eliminated the "tree" is a box LP solved in
         closed form below; no root node then. *)
      if m0 > 0 then
        Pqueue.push queue neg_infinity { nbound = neg_infinity; changes = []; nbasis = None };
      let feas_tol = 1e-6 in
      (* Streaming hook: fires on every strict incumbent improvement
         with (objective, best proven bound) in the model's own
         direction; [bound ()] is read only then.  In a parallel drive
         it runs on a worker domain, so callers must pass a thread-safe
         callback. *)
      let notify_incumbent obj bound =
        match on_incumbent with
        | None -> ()
        | Some f -> f (sign *. obj) (sign *. Float.min (bound ()) obj)
      in
      (* Strict improvement by more than 1e-12; a lost race against
         another domain retries against the fresher value. *)
      let rec update_incumbent x obj ~bound =
        let cur = Atomic.get inc in
        if obj < cur.i_obj -. 1e-12 then
          if Atomic.compare_and_set inc cur { i_obj = obj; i_sol = Some (Array.copy x) } then
            notify_incumbent obj bound
          else update_incumbent x obj ~bound
      in
      (* Carried-in incumbent: a solution of the previous (smaller) model
         zero-extended over the new columns, in original (full) space.
         Re-validate it against the full rows/bounds, then restrict it
         through the reduction — [None] means it contradicts a forced
         fixing, i.e. it cannot actually be feasible, and is dropped.
         The reduced objective (with its folded constant) equals the
         objective of the point {!Postsolve.restore} would rebuild, so
         it prunes exactly like a full-space incumbent. *)
      (match warm_solution with
      | Some x
        when Array.length x = nfull
             && (let ok = ref true in
                 for j = 0 to nfull - 1 do
                   if x.(j) < root_lb.(j) -. feas_tol || x.(j) > root_ub.(j) +. feas_tol
                   then ok := false;
                   if
                     integer_full.(j) && Float.abs (x.(j) -. Float.round x.(j)) > feas_tol
                   then ok := false
                 done;
                 !ok)
             && rows_feasible p x feas_tol -> (
          match Postsolve.restrict ~tol:feas_tol post x with
          | Some xr ->
              let obj = objective_of p0 xr in
              let cur = Atomic.get inc in
              if obj <= cur.i_obj +. 1e-9 then
                Atomic.set inc { i_obj = Float.min cur.i_obj obj; i_sol = Some xr }
          | None -> ())
      | _ -> ());
      (* Carried-in cuts arrive in original space: map them through the
         reduction (fixed columns fold into the rhs, cuts touching a
         substituted column are dropped), then only literal-form cuts
         that re-certify against the reduced base rows under the new
         root bounds enter the pool; Gomory cuts, cuts of a disabled
         family, and anything uncertifiable are dropped. *)
      if options.cuts then
        List.iter
          (fun (c : Cuts.cut) ->
            if fam (Cuts.family_of_origin c.Cuts.c_origin) then
              match Cuts.restrict post c with
              | Some c' ->
                  if Cuts.certify_cover p0 ~nrows:m0 ~integer ~lb:plb ~ub:pub c' then
                    if Cuts.add pool c' ~x:[||] then incr cuts_seeded
              | None -> ())
          seed_cuts;
      let best_open_bound () =
        match Pqueue.peek_key queue with Some k -> k | None -> infinity
      in
      (* Has a real incumbent closed the gap to [bound]?  A bare cutoff
         (no solution) never counts. *)
      let gap_met bound =
        let c = Atomic.get inc in
        c.i_sol <> None
        && (c.i_obj -. bound <= options.abs_gap
           || c.i_obj -. bound <= options.rel_gap *. Float.max 1e-10 (Float.abs c.i_obj))
      in
      let timed_out = Atomic.make false in
      let unbounded = Atomic.make false in
      (* A node LP killed by the deadline or the pivot cap was dropped
         without resolving its subtree: an empty queue then proves
         nothing, so neither "optimal" nor "infeasible" may be claimed
         off exhaustion. *)
      let lp_cut_short = Atomic.make false in
      (* The deadline and interrupt checks every drive runs between
         nodes. *)
      let halted () =
        if Clock.now () -. t0 > options.time_limit then begin
          Atomic.set timed_out true;
          true
        end
        else stop_requested ()
      in
      let pick_branch_var = most_fractional integer in
      let cut_root_done = ref false in
      let node_cut_budget = ref 8 in
      (* Total cap on applied cuts: every applied cut permanently grows
         m, taxing each subsequent O(m^2) warm restore, so past a point
         more cuts cost more than the nodes they prune. *)
      let max_applied_cuts = options.max_applied_cuts in
      (* The conflict table over the reduced base rows under root
         bounds, read by the clique separator.  Built once, on first
         demand (the 0-1 structure never changes during the tree). *)
      let conflict_tbl =
        lazy (Conflicts.build p0 ~nrows:m0 ~integer ~lb:plb ~ub:pub)
      in
      (* Problem-structure separators (power/RSS strengthening and the
         like) speak original variable ids: hand them the postsolved
         point, then map their cuts back onto the reduced columns.
         Cuts touching an eliminated column are dropped — sound, they
         are merely missed. *)
      let separate_external x =
        if separators = [] then []
        else begin
          let xfull = Postsolve.restore post x in
          List.concat_map (fun sep -> sep xfull) separators
          |> List.filter_map (Cuts.restrict post)
        end
      in
      (* Re-solve after appending cuts, warm on the grown basis. *)
      let resolve_with_cuts basis selected ~lb ~ub =
        append_cuts selected;
        let basis = grow_for basis selected in
        lp_solve options st ~ws:sws ~deadline
          ?basis:(if options.warm_start then Some basis else None)
          !pref ~lb ~ub
      in
      (* Root cut loop: separate (GMI from the tableau, covers / cliques
         / structural cuts from the base rows and conflict table), pool,
         apply the most violated, re-solve by riding the
         warm dual simplex on the grown basis; repeat until nothing
         separates, the bound tails off, or the round budget is spent.
         Every family derives from the root bounds, so the cuts are
         valid for every integer-feasible point and may stay for the
         whole tree. *)
      let root_cut_loop r ~lb ~ub =
        let rounds = ref 0 and tail = ref 0 and go = ref true in
        while
          !go && !rounds < cut_rounds
          && Array.length !cut_index < max_applied_cuts
          && Clock.now () < deadline
        do
          incr rounds;
          match (!r.Simplex.status, !r.Simplex.basis) with
          | Status.Lp_optimal, Some basis when pick_branch_var !r.Simplex.primal >= 0 ->
              let x = !r.Simplex.primal in
              let gmi =
                if fam Cuts.F_gmi then
                  Cuts.gomory !pref ~integer ~lb:plb ~ub:pub basis ~max_cuts:16
                else []
              in
              let cov =
                if fam Cuts.F_cover then
                  Cuts.covers !pref ~nrows:m0 ~integer ~lb:plb ~ub:pub ~x ~max_cuts:16
                else []
              in
              let clq =
                if fam Cuts.F_clique then
                  Cuts.cliques (Lazy.force conflict_tbl) ~x ~max_cuts:8
                else []
              in
              let ext = if fam Cuts.F_power then separate_external x else [] in
              List.iter
                (fun c -> ignore (Cuts.add pool c ~x))
                (List.concat [ gmi; cov; clq; ext ]);
              let room = max_applied_cuts - Array.length !cut_index in
              let selected =
                Cuts.select pool ~x ~max_cuts:(min 8 room)
                  ~min_violation:options.cut_min_violation
              in
              if selected = [] then go := false
              else begin
                let prev = !r.Simplex.objective in
                let r' = resolve_with_cuts basis selected ~lb ~ub in
                if r'.Simplex.status = Status.Lp_optimal then begin
                  r := r';
                  if r'.Simplex.objective -. prev < 1e-4 *. Float.max 1. (Float.abs prev)
                  then begin
                    incr tail;
                    if !tail >= 2 then go := false
                  end
                  else tail := 0
                end
                else go := false
              end
          | _ -> go := false
        done
      in
      (* One combinatorial separation round at a shallow node: covers
         and cliques (both cheap — no tableau).  They come from the base
         rows / conflict table under the root bounds, so they are
         globally valid no matter where they were separated. *)
      let node_separation r ~lb ~ub =
        match (!r.Simplex.status, !r.Simplex.basis) with
        | Status.Lp_optimal, Some basis ->
            let x = !r.Simplex.primal in
            let cov =
              if fam Cuts.F_cover then
                Cuts.covers !pref ~nrows:m0 ~integer ~lb:plb ~ub:pub ~x ~max_cuts:8
              else []
            in
            let clq =
              if fam Cuts.F_clique then
                Cuts.cliques (Lazy.force conflict_tbl) ~x ~max_cuts:4
              else []
            in
            List.iter (fun c -> ignore (Cuts.add pool c ~x)) (cov @ clq);
            let selected =
              Cuts.select pool ~x ~max_cuts:2
                ~min_violation:(10. *. options.cut_min_violation)
            in
            if selected <> [] then begin
              node_cut_budget := !node_cut_budget - List.length selected;
              let r' = resolve_with_cuts basis selected ~lb ~ub in
              if r'.Simplex.status = Status.Lp_optimal then r := r'
            end
        | _ -> ()
      in
      (* The sequential drive's separation step: the root cut loop on
         the first root solve, then occasional rounds at shallow nodes.
         Workers skip it: the working problem is frozen for them. *)
      let separate node r ~lb ~ub =
        if options.cuts then begin
          if node.changes = [] && not !cut_root_done then begin
            cut_root_done := true;
            if !r.Simplex.status = Status.Lp_optimal then begin
              root_lp_bound := !r.Simplex.objective;
              root_cut_loop r ~lb ~ub;
              root_cut_bound := !r.Simplex.objective
            end
          end
          else if
            !cut_root_done
            && !node_cut_budget > 0
            && List.length node.changes <= 3
            && st.t_nodes land 7 = 3
          then node_separation r ~lb ~ub
        end
      in
      (* Reduced-cost fixing: once an incumbent exists, an integer
         variable sitting at a bound whose reduced cost proves that
         leaving the bound cannot beat the incumbent is fixed there for
         the whole subtree (the duals are already on hand from the warm
         solve).  Returns the bound changes to thread into both
         children. *)
      let rc_fixes prob (cur : incumbent) (r : Simplex.result) lb ub =
        if (not options.rc_fixing) || cur.i_sol = None then []
        else
          match r.Simplex.basis with
          | None -> []
          | Some b -> (
              match Simplex.reduced_costs prob b with
              | None -> []
              | Some d ->
                  let z = r.Simplex.objective in
                  let cutoff = cur.i_obj -. options.abs_gap in
                  let x = r.Simplex.primal in
                  let fixes = ref [] in
                  for j = 0 to n - 1 do
                    if integer.(j) && lb.(j) < ub.(j) then
                      if
                        x.(j) <= lb.(j) +. int_tol
                        && d.(j) > 0.
                        && z +. d.(j) >= cutoff
                      then fixes := (j, lb.(j), lb.(j)) :: !fixes
                      else if
                        x.(j) >= ub.(j) -. int_tol
                        && d.(j) < 0.
                        && z -. d.(j) >= cutoff
                      then fixes := (j, ub.(j), ub.(j)) :: !fixes
                  done;
                  !fixes)
      in
      (* Node processing, shared by every drive: the plain loop, the
         scheduler chain, the parallel ramp-up and the worker tasks.
         Only what differs between drives is a parameter: the tallies
         [t] and simplex workspace [ws] it books on, the working
         problem [prob] and its flat rows [prob_rows ()], the heuristic
         schedule [offsets] (worker slots phase rounding and dives apart
         so domains probe different parts of the tree), the [separate]
         step, the bound of every other open node [open_bound ()], and
         where children are [push]ed. *)
      let process t ~ws ~prob ~prob_rows ~offsets:(round_off, dive_off) ~separate ~open_bound
          ~push node =
        t.t_nodes <- t.t_nodes + 1;
        (* Prune by bound before paying for the LP. *)
        if node.nbound >= (Atomic.get inc).i_obj -. options.abs_gap then
          t.t_pruned <- t.t_pruned + 1
        else begin
          let lb = Array.copy plb and ub = Array.copy pub in
          List.iter
            (fun (j, l, u) ->
              lb.(j) <- Float.max lb.(j) l;
              ub.(j) <- Float.min ub.(j) u)
            node.changes;
          match if node.changes = [] then Some (lb, ub) else propagate p0_rows integer lb ub with
          | None -> () (* bound propagation proved the node infeasible *)
          | Some (lb, ub) -> (
              let basis = node_basis node.nbasis in
              let r = ref (lp_solve options t ~ws ~deadline ?basis !prob ~lb ~ub) in
              separate node r ~lb ~ub;
              match !r.Simplex.status with
              | Status.Lp_infeasible -> ()
              | Status.Lp_iteration_limit -> Atomic.set lp_cut_short true
              | Status.Lp_unbounded ->
                  if (Atomic.get inc).i_sol = None then Atomic.set unbounded true
              | Status.Lp_optimal ->
                  let r = !r and prob = !prob in
                  let obj = r.Simplex.objective in
                  if obj >= (Atomic.get inc).i_obj -. options.abs_gap then
                    t.t_pruned <- t.t_pruned + 1
                  else begin
                    (* Anything found here lies in this node's subtree,
                       so the streamed bound covers this node's LP as
                       well as every other open node. *)
                    let improve y yobj =
                      update_incumbent y yobj ~bound:(fun () -> Float.min obj (open_bound ()))
                    in
                    let x = r.Simplex.primal in
                    let j = pick_branch_var x in
                    if j < 0 then improve x obj
                    else begin
                      if (t.t_nodes + round_off) land 15 = 1 then begin
                        match try_rounding prob integer lb ub x feas_tol with
                        | Some y -> improve y (objective_of prob y)
                        | None -> ()
                      end;
                      (* Dive for an incumbent: always until the first one
                         exists, then occasionally to improve it. *)
                      if
                        (Atomic.get inc).i_sol = None
                        || (t.t_nodes + dive_off) land 63 = 2
                      then begin
                        match dive options t ~ws ~deadline prob (prob_rows ()) integer lb ub r 200 with
                        | Some (y, yobj) -> improve y yobj
                        | None -> ()
                      end;
                      let fixes = rc_fixes prob (Atomic.get inc) r lb ub in
                      t.t_rc <- t.t_rc + List.length fixes;
                      let inherited = List.rev_append fixes node.changes in
                      let v = x.(j) in
                      let down = (j, neg_infinity, Float.floor v) in
                      let up = (j, Float.ceil v, infinity) in
                      let nbasis = if options.warm_start then r.Simplex.basis else None in
                      push obj { nbound = obj; changes = down :: inherited; nbasis };
                      push obj { nbound = obj; changes = up :: inherited; nbasis }
                    end
                  end)
        end
      in
      (* One turn of the sequential drive: false = the loop is over.
         Shared verbatim between the plain recursive loop, the
         scheduler-chained form and the parallel ramp-up below, so all
         three walk the same tree. *)
      let seq_step () =
        if Pqueue.is_empty queue || gap_met (best_open_bound ()) || Atomic.get unbounded then
          false
        else if st.t_nodes >= options.node_limit || halted () then false
        else begin
          (match Pqueue.pop queue with
          | Some (_, node) ->
              process st ~ws:sws ~prob:pref ~prob_rows:working_rows ~offsets:(0, 0) ~separate
                ~open_bound:best_open_bound ~push:(Pqueue.push queue) node;
              if options.log && st.t_nodes mod 500 = 0 then
                Log.info (fun f ->
                    f "nodes=%d open=%d incumbent=%g bound=%g" st.t_nodes (Pqueue.length queue)
                      (Atomic.get inc).i_obj (best_open_bound ()))
          | None -> ());
          true
        end
      in
      let rec loop () = if seq_step () then loop () in
      (* Degenerate reduction: every row eliminated.  The remaining
         problem is a box LP whose optimum sits at the objective-
         preferred bound of each column (integer bounds are already
         rounded inward), solved here in closed form — the simplex and
         the tree never run. *)
      if m0 = 0 then begin
        let x = Array.make n 0. in
        let bounded = ref true in
        (try
           for j = 0 to n - 1 do
             let c = p0.Simplex.obj.(j) in
             let v =
               if c > 0. then plb.(j)
               else if c < 0. then pub.(j)
               else if Float.is_finite plb.(j) then plb.(j)
               else if Float.is_finite pub.(j) then pub.(j)
               else 0.
             in
             if not (Float.is_finite v) then raise Exit;
             x.(j) <- v
           done
         with Exit -> bounded := false);
        if !bounded then begin
          let obj = objective_of p0 x in
          root_lp_bound := obj;
          update_incumbent x obj ~bound:(fun () -> obj)
        end
        else if (Atomic.get inc).i_sol = None then Atomic.set unbounded true
      end;
      (* The open-tree bound after the drive: sequential reads the one
         heap, parallel also folds in the scheduler handle (queued plus
         in-flight nodes). *)
      let par_handle = ref None in
      (* Sequential drive through a shared scheduler: the solve becomes
         a chain of one-node tasks over the same local heap.  Exactly
         one task of this solve exists at any moment (each pushes its
         successor before retiring), so node order and every tally
         replay the plain [loop] bit-identically, while the scheduler
         interleaves the chain with other solves at node granularity.
         The advisory key is the heap minimum, keeping cross-solve
         victim selection bound-aware. *)
      let seq_via sched =
        let h = Scheduler.submit sched in
        let rec enqueue () =
          let key = match Pqueue.peek_key queue with Some k -> k | None -> infinity in
          Scheduler.push h ~worker:0 key (fun _slot -> if seq_step () then enqueue ())
        in
        if not (Pqueue.is_empty queue) then enqueue ();
        Scheduler.await h
      in
      if options.nworkers <= 1 then (
        match scheduler with None -> loop () | Some sched -> seq_via sched)
      else begin
        let sched, owned_sched =
          match scheduler with
          | Some s -> (s, false)
          | None -> (Scheduler.create ~nworkers:options.nworkers, true)
        in
        let run_parallel () =
          let nslots = Scheduler.nworkers sched in
          (* Phase 1 — sequential ramp-up: the root node (presolve, root
             cut loop, first dive) and a few more run as turns of the
             sequential drive ([seq_step]) until there is enough frontier
             to feed every domain.  All cut-pool and working-problem writes
             happen in this phase; everything workers later read is
             frozen. *)
          let ramp_width = 2 * nslots in
          let ramp_nodes = 32 in
          let rec ramp () =
            if Pqueue.length queue < ramp_width && st.t_nodes < ramp_nodes && seq_step () then
              ramp ()
          in
          ramp ();
          if
            not
              (Pqueue.is_empty queue
              || gap_met (best_open_bound ())
              || Atomic.get unbounded || Atomic.get timed_out || stop_requested ()
              || st.t_nodes >= options.node_limit)
          then begin
            (* Phase 2 — freeze the cut-augmented problem and hand the
               frontier to the scheduler, dealt round-robin so workers
               start in different subtrees. *)
            let pw = ref !pref and pw_rows = working_rows () in
            let h = Scheduler.submit sched in
            par_handle := Some h;
            let total_nodes = Atomic.make st.t_nodes in
            (* One tally record and one simplex workspace per worker
               slot: a slot runs one task of this solve at a time, so
               buffers are reused across that slot's node re-solves and
               never shared. *)
            let wts = Array.init nslots (fun _ -> new_tallies ()) in
            let wss = Array.init nslots (fun _ -> Simplex.create_workspace ()) in
            (* Until the deal below has pushed the whole frontier, the
               nodes still in the local heap are invisible to the
               scheduler; the frontier minimum, read before dealing,
               bounds them. *)
            let frontier = best_open_bound () in
            let dealing = Atomic.make true in
            let open_bound () =
              let b = Scheduler.best_bound h in
              if Atomic.get dealing then Float.min frontier b else b
            in
            (* A worker task: the per-node deadline / interrupt /
               node-limit checks, then the shared [process] on the
               frozen problem with no separation and children pushed to
               this slot's heap; then the gap test.  The scheduler
               retires each task after its children are pushed,
               preserving the exhaustion proof. *)
            let rec wtask node slot =
              if halted () then Scheduler.stop h
              else if Atomic.fetch_and_add total_nodes 1 >= options.node_limit then begin
                Atomic.decr total_nodes;
                Scheduler.stop h
              end
              else begin
                process wts.(slot) ~ws:wss.(slot) ~prob:pw ~prob_rows:(fun () -> pw_rows)
                  ~offsets:(slot, options.seed + (17 * slot))
                  ~separate:(fun _ _ ~lb:_ ~ub:_ -> ())
                  ~open_bound
                  ~push:(fun key child -> Scheduler.push h ~worker:slot key (wtask child))
                  node;
                if Atomic.get unbounded || gap_met (open_bound ()) then Scheduler.stop h
              end
            in
            (* Deal the frontier round-robin so workers start in
               different subtrees; the shared pool begins executing as
               soon as the first node lands.  A task that dies mid-node
               is trapped by the scheduler, which stops this solve (not
               its neighbours) and re-raises out of [await]. *)
            let dealt = ref 0 in
            let rec deal () =
              match Pqueue.pop queue with
              | Some (k, node) ->
                  Scheduler.push h ~worker:!dealt k (wtask node);
                  incr dealt;
                  deal ()
              | None -> ()
            in
            deal ();
            Atomic.set dealing false;
            Scheduler.await h;
            Array.iter (absorb st) wts
          end
        in
        if owned_sched then
          Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) run_parallel
        else run_parallel ()
      end;
      let exhausted, open_bound =
        let settled = not (Atomic.get lp_cut_short) && Pqueue.is_empty queue in
        match !par_handle with
        | None -> (settled, best_open_bound ())
        | Some h ->
            (settled && Scheduler.drained h, Float.min (Scheduler.best_bound h) (best_open_bound ()))
      in
      let { i_obj; i_sol } = Atomic.get inc in
      let final_bound =
        match i_sol with Some _ when exhausted -> i_obj | _ -> Float.min open_bound i_obj
      in
      if Atomic.get unbounded then
        finish Status.Mip_unbounded ~objective:neg_infinity ~bound:neg_infinity ~solution:None st
      else begin
        match i_sol with
        | Some x ->
            let status =
              if exhausted || gap_met open_bound then Status.Mip_optimal else Status.Mip_feasible
            in
            (* Incumbents live in reduced space throughout the tree;
               postsolve back to the original index space only here. *)
            finish status ~objective:i_obj ~bound:final_bound
              ~solution:(Some (Postsolve.restore post x))
              st
        | None ->
            let status =
              (* With a cutoff installed, an exhausted tree only proves
                 "nothing better than the cutoff", not infeasibility. *)
              if
                exhausted
                && (not (Atomic.get timed_out))
                && st.t_nodes < options.node_limit
                && Float.is_nan options.cutoff
              then Status.Mip_infeasible
              else Status.Mip_unknown
            in
            finish status ~objective:infinity ~bound:final_bound ~solution:None st
      end
