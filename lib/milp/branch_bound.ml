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

(* The per-solve record that the reduction stage hands to the root, the
   drives and [finish], in min form ([sign] maps objectives back).  Past
   the root only the sequential drive writes the working problem and the
   node-separation budget.  A worker task runs [process] on a copy that
   swaps in its slot's tallies, workspace, heuristic offsets, open bound
   and push, with no separation budget; the copy shares everything else,
   so worker domains write only the atomics. *)
type search = {
  o : options;
  sign : float;
  t0 : float;
  deadline : float;
  interrupt : bool Atomic.t option;
  on_incumbent : (float -> float -> unit) option;
  separators : Cuts.separator list;
  (* The reduced problem: [m0] base rows and their flat image for node
     propagation, integrality, root bounds, and the postsolve. *)
  p0 : Simplex.problem;
  m0 : int;
  p0_rows : Presolve.flat;
  integer : bool array;
  plb : float array;
  pub : float array;
  post : Postsolve.t;
  cuts_seeded : int;
  inc : incumbent Atomic.t;
  pool : Cuts.pool;
  (* The conflict table over the reduced base rows under root bounds,
     read by the clique separator.  Built once, on first demand (the
     0-1 structure never changes during the tree). *)
  conflict_tbl : Conflicts.t Lazy.t;
  (* Working problem: the base rows plus every applied cut.  Cut rows
     are only ever appended, never removed, so a basis snapshotted when
     k cuts were active can be grown to the current row set by
     appending the rows it is missing ([cut_index], append order).
     [pref_rows] is its flat image, built when a dive first needs it
     after the last cut round changed the problem. *)
  pref : Simplex.problem ref;
  mutable pref_rows : Presolve.flat option;
  mutable cut_index : (int * float) array array;
  (* Cuts that became problem rows this solve; together with the pool's
     survivors they form the carry-out for an incremental session. *)
  mutable applied_cuts : Cuts.cut list;
  mutable node_cut_budget : int;
  (* The sequential drive's heap.  [process] books on the tallies [st]
     and workspace [sws], phases rounding and dives by [offsets] (worker
     slots phase them apart so domains probe different parts of the
     tree), reads the bound of every other open node from [open_bound]
     and [push]es children: here all on the heap. *)
  queue : node Pqueue.t;
  sws : Simplex.workspace;
  st : tallies;
  offsets : int * int;
  open_bound : unit -> float;
  push : float -> node -> unit;
  timed_out : bool Atomic.t;
  unbounded : bool Atomic.t;
  (* A node LP killed by the deadline or the pivot cap was dropped
     without resolving its subtree: an empty queue then proves nothing,
     so neither "optimal" nor "infeasible" may be claimed off
     exhaustion. *)
  lp_cut_short : bool Atomic.t;
}

(* Root LP objective before and after the root cut loop (min form);
   [nan] where that LP did not run or was not optimal. *)
type root_bounds = { lp_bound : float; cut_bound : float }

let no_root = { lp_bound = nan; cut_bound = nan }

(* What a drive hands to [finish]: the root stage's bounds, whether the
   tree was searched to exhaustion, and the bound of the nodes left
   open. *)
type verdict = { root : root_bounds; exhausted : bool; left_open : float }

let feas_tol = 1e-6

(* Which separation families may run: the master [cuts] switch gates
   them all, the family list is the per-family ablation axis. *)
let fam o f = o.cuts && List.mem f o.cut_families

(* The deadline and interrupt checks every drive runs between nodes.
   The interrupt is cooperative cancellation checked exactly where the
   deadline is, so it behaves like a timeout — the search stops with its
   current incumbent and an honest (non-exhausted) bound.  [None] is a
   constant [false] check and leaves the pinned sequential trees
   untouched. *)
let halted s =
  if Clock.now () -. s.t0 > s.o.time_limit then begin
    Atomic.set s.timed_out true;
    true
  end
  else match s.interrupt with Some a -> Atomic.get a | None -> false

(* Has a real incumbent closed the gap to [bound]?  A bare cutoff (no
   solution) never counts. *)
let gap_met s bound =
  let c = Atomic.get s.inc in
  c.i_sol <> None
  && (c.i_obj -. bound <= s.o.abs_gap
     || c.i_obj -. bound <= s.o.rel_gap *. Float.max 1e-10 (Float.abs c.i_obj))

(* Strict improvement by more than 1e-12; a lost race against another
   domain retries against the fresher value.  Every strict improvement
   fires the streaming hook with (objective, best proven bound) in the
   model's own direction; [bound ()] is read only then.  In a parallel
   drive it runs on a worker domain, so callers must pass a thread-safe
   callback. *)
let rec update_incumbent s x obj ~bound =
  let cur = Atomic.get s.inc in
  if obj < cur.i_obj -. 1e-12 then
    if Atomic.compare_and_set s.inc cur { i_obj = obj; i_sol = Some (Array.copy x) } then (
      match s.on_incumbent with
      | None -> ()
      | Some f -> f (s.sign *. obj) (s.sign *. Float.min (bound ()) obj))
    else update_incumbent s x obj ~bound

(* Prune by bound against the incumbent (or cutoff), booked on [st]. *)
let pruned s bound =
  if bound >= (Atomic.get s.inc).i_obj -. s.o.abs_gap then begin
    s.st.t_pruned <- s.st.t_pruned + 1;
    true
  end
  else false

let working_rows s =
  match s.pref_rows with
  | Some r -> r
  | None ->
      let r = Presolve.flatten !(s.pref) in
      s.pref_rows <- Some r;
      r

(* Grow a snapshot across the cuts applied since it was taken; a basis
   too far behind is not worth the O(m'^2) catch-up and falls back to a
   cold solve. *)
let upgrade_basis s (b : Basis.t) =
  let cur = Array.length !(s.pref).Simplex.rows in
  if b.Basis.nrows = cur then Some b
  else if b.Basis.nrows < s.m0 || cur - b.Basis.nrows > 48 then None
  else
    Some
      (Basis.append_rows b (Array.sub s.cut_index (b.Basis.nrows - s.m0) (cur - b.Basis.nrows)))

(* Problem-structure separators (power/RSS strengthening and the like)
   speak original variable ids: hand them the postsolved point, then
   map their cuts back onto the reduced columns.  Cuts touching an
   eliminated column are dropped — sound, they are merely missed. *)
let separate_external s x =
  if s.separators = [] then []
  else begin
    let xfull = Postsolve.restore s.post x in
    List.concat_map (fun sep -> sep xfull) s.separators |> List.filter_map (Cuts.restrict s.post)
  end

(* Append cuts to the working problem, then re-solve warm on the grown
   basis. *)
let resolve_with_cuts s basis selected ~lb ~ub =
  let rows = List.map (fun (c : Cuts.cut) -> (c.Cuts.c_row, Model.Le, c.Cuts.c_rhs)) selected in
  let new_rows = Array.of_list (List.map (fun (c : Cuts.cut) -> c.Cuts.c_row) selected) in
  s.applied_cuts <- List.rev_append selected s.applied_cuts;
  s.pref := Simplex.add_rows !(s.pref) rows;
  s.pref_rows <- None;
  s.cut_index <- Array.append s.cut_index new_rows;
  let basis = Basis.append_rows basis new_rows in
  lp_solve s.o s.st ~ws:s.sws ~deadline:s.deadline
    ?basis:(if s.o.warm_start then Some basis else None)
    !(s.pref) ~lb ~ub

(* Root cut loop: separate (GMI from the tableau, covers / cliques /
   structural cuts from the base rows and conflict table), pool, apply
   the most violated, re-solve by riding the warm dual simplex on the
   grown basis; repeat until nothing separates, the bound tails off, or
   the round budget is spent.  Every family derives from the root
   bounds, so the cuts are valid for every integer-feasible point and
   may stay for the whole tree.  Returns the last optimal root LP. *)
let root_cut_loop s r ~lb ~ub =
  let o = s.o and integer = s.integer and plb = s.plb and pub = s.pub in
  let r = ref r in
  let rounds = ref 0 and tail = ref 0 and go = ref true in
  while
    !go && !rounds < cut_rounds
    && Array.length s.cut_index < o.max_applied_cuts
    && Clock.now () < s.deadline
  do
    incr rounds;
    match (!r.Simplex.status, !r.Simplex.basis) with
    | Status.Lp_optimal, Some basis when most_fractional integer !r.Simplex.primal >= 0 ->
        let x = !r.Simplex.primal in
        let gmi =
          if fam o Cuts.F_gmi then
            Cuts.gomory !(s.pref) ~integer ~lb:plb ~ub:pub basis ~max_cuts:16
          else []
        in
        let cov =
          if fam o Cuts.F_cover then
            Cuts.covers !(s.pref) ~nrows:s.m0 ~integer ~lb:plb ~ub:pub ~x ~max_cuts:16
          else []
        in
        let clq =
          if fam o Cuts.F_clique then Cuts.cliques (Lazy.force s.conflict_tbl) ~x ~max_cuts:8
          else []
        in
        let ext = if fam o Cuts.F_power then separate_external s x else [] in
        List.iter (fun c -> ignore (Cuts.add s.pool c)) (List.concat [ gmi; cov; clq; ext ]);
        (* Total cap on applied cuts: every applied cut permanently
           grows m, taxing each subsequent O(m^2) warm restore, so past
           a point more cuts cost more than the nodes they prune. *)
        let room = o.max_applied_cuts - Array.length s.cut_index in
        let selected =
          Cuts.select s.pool ~x ~max_cuts:(min 8 room) ~min_violation:o.cut_min_violation
        in
        if selected = [] then go := false
        else begin
          let prev = !r.Simplex.objective in
          let r' = resolve_with_cuts s basis selected ~lb ~ub in
          if r'.Simplex.status = Status.Lp_optimal then begin
            r := r';
            if r'.Simplex.objective -. prev < 1e-4 *. Float.max 1. (Float.abs prev) then begin
              incr tail;
              if !tail >= 2 then go := false
            end
            else tail := 0
          end
          else go := false
        end
    | _ -> go := false
  done;
  !r

(* One combinatorial separation round at a shallow node: covers and
   cliques (both cheap — no tableau).  They come from the base rows /
   conflict table under the root bounds, so they are globally valid no
   matter where they were separated.  Returns the node's LP, re-solved
   when cuts were applied. *)
let node_separation s (r : Simplex.result) ~lb ~ub =
  match (r.Simplex.status, r.Simplex.basis) with
  | Status.Lp_optimal, Some basis ->
      let o = s.o and x = r.Simplex.primal in
      let cov =
        if fam o Cuts.F_cover then
          Cuts.covers !(s.pref) ~nrows:s.m0 ~integer:s.integer ~lb:s.plb ~ub:s.pub ~x ~max_cuts:8
        else []
      in
      let clq =
        if fam o Cuts.F_clique then Cuts.cliques (Lazy.force s.conflict_tbl) ~x ~max_cuts:4
        else []
      in
      List.iter (fun c -> ignore (Cuts.add s.pool c)) (cov @ clq);
      let selected =
        Cuts.select s.pool ~x ~max_cuts:2 ~min_violation:(10. *. o.cut_min_violation)
      in
      if selected = [] then r
      else begin
        s.node_cut_budget <- s.node_cut_budget - List.length selected;
        let r' = resolve_with_cuts s basis selected ~lb ~ub in
        if r'.Simplex.status = Status.Lp_optimal then r' else r
      end
  | _ -> r

(* Reduced-cost fixing: once an incumbent exists, an integer variable
   sitting at a bound whose reduced cost proves that leaving the bound
   cannot beat the incumbent is fixed there for the whole subtree (the
   duals are already on hand from the warm solve).  Returns the bound
   changes to thread into both children. *)
let rc_fixes s prob (cur : incumbent) (r : Simplex.result) lb ub =
  if (not s.o.rc_fixing) || cur.i_sol = None then []
  else
    match r.Simplex.basis with
    | None -> []
    | Some b -> (
        match Simplex.reduced_costs prob b with
        | None -> []
        | Some d ->
            let z = r.Simplex.objective in
            let cutoff = cur.i_obj -. s.o.abs_gap in
            let x = r.Simplex.primal in
            let fixes = ref [] in
            for j = 0 to s.p0.Simplex.ncols - 1 do
              if s.integer.(j) && lb.(j) < ub.(j) then
                if x.(j) <= lb.(j) +. int_tol && d.(j) > 0. && z +. d.(j) >= cutoff then
                  fixes := (j, lb.(j), lb.(j)) :: !fixes
                else if x.(j) >= ub.(j) -. int_tol && d.(j) < 0. && z -. d.(j) >= cutoff then
                  fixes := (j, ub.(j), ub.(j)) :: !fixes
            done;
            !fixes)

(* A node's LP outcome, shared by the root and every other node: an
   optimal LP that survives bound pruning is rounded, dived from, and
   branched on, with its children inheriting [changes] plus any
   reduced-cost fixings. *)
let settle s ~changes ~lb ~ub (r : Simplex.result) =
  let t = s.st in
  match r.Simplex.status with
  | Status.Lp_infeasible -> ()
  | Status.Lp_iteration_limit -> Atomic.set s.lp_cut_short true
  | Status.Lp_unbounded -> if (Atomic.get s.inc).i_sol = None then Atomic.set s.unbounded true
  | Status.Lp_optimal ->
      let obj = r.Simplex.objective in
      if not (pruned s obj) then begin
        let prob = !(s.pref) and round_off, dive_off = s.offsets in
        (* Anything found here lies in this node's subtree, so the
           streamed bound covers this node's LP as well as every other
           open node. *)
        let improve y yobj =
          update_incumbent s y yobj ~bound:(fun () -> Float.min obj (s.open_bound ()))
        in
        let x = r.Simplex.primal in
        let j = most_fractional s.integer x in
        if j < 0 then improve x obj
        else begin
          if (t.t_nodes + round_off) land 15 = 1 then begin
            match try_rounding prob s.integer lb ub x feas_tol with
            | Some y -> improve y (objective_of prob y)
            | None -> ()
          end;
          (* Dive for an incumbent: always until the first one exists,
             then occasionally to improve it. *)
          if (Atomic.get s.inc).i_sol = None || (t.t_nodes + dive_off) land 63 = 2 then begin
            match
              dive s.o t ~ws:s.sws ~deadline:s.deadline prob (working_rows s) s.integer lb ub r 200
            with
            | Some (y, yobj) -> improve y yobj
            | None -> ()
          end;
          let fixes = rc_fixes s prob (Atomic.get s.inc) r lb ub in
          t.t_rc <- t.t_rc + List.length fixes;
          let inherited = List.rev_append fixes changes in
          let v = x.(j) in
          let down = (j, neg_infinity, Float.floor v) in
          let up = (j, Float.ceil v, infinity) in
          let nbasis = if s.o.warm_start then r.Simplex.basis else None in
          s.push obj { nbound = obj; changes = down :: inherited; nbasis };
          s.push obj { nbound = obj; changes = up :: inherited; nbasis }
        end
      end

(* Node processing past the root, shared by every drive: the plain
   loop, the scheduler chain, the parallel ramp-up and the worker
   tasks. *)
let process s node =
  let t = s.st in
  t.t_nodes <- t.t_nodes + 1;
  (* Prune by bound before paying for the LP. *)
  if not (pruned s node.nbound) then begin
    let lb = Array.copy s.plb and ub = Array.copy s.pub in
    List.iter
      (fun (j, l, u) ->
        lb.(j) <- Float.max lb.(j) l;
        ub.(j) <- Float.min ub.(j) u)
      node.changes;
    match propagate s.p0_rows s.integer lb ub with
    | None -> () (* bound propagation proved the node infeasible *)
    | Some (lb, ub) ->
        let basis = if s.o.warm_start then Option.bind node.nbasis (upgrade_basis s) else None in
        let r = lp_solve s.o t ~ws:s.sws ~deadline:s.deadline ?basis !(s.pref) ~lb ~ub in
        (* Occasional cut rounds at shallow nodes, on the sequential
           drive only: worker copies carry no budget. *)
        let r =
          if
            s.o.cuts && s.node_cut_budget > 0
            && List.length node.changes <= 3
            && t.t_nodes land 7 = 3
          then node_separation s r ~lb ~ub
          else r
        in
        settle s ~changes:node.changes ~lb ~ub r
  end

(* Degenerate reduction: every row eliminated.  The remaining problem is
   a box LP whose optimum sits at the objective-preferred bound of each
   column (integer bounds are already rounded inward), solved here in
   closed form — the simplex and the tree never run. *)
let box_root s =
  let n = s.p0.Simplex.ncols in
  let x = Array.make n 0. in
  let bounded = ref true in
  (try
     for j = 0 to n - 1 do
       let c = s.p0.Simplex.obj.(j) in
       let v =
         if c > 0. then s.plb.(j)
         else if c < 0. then s.pub.(j)
         else if Float.is_finite s.plb.(j) then s.plb.(j)
         else if Float.is_finite s.pub.(j) then s.pub.(j)
         else 0.
       in
       if not (Float.is_finite v) then raise Exit;
       x.(j) <- v
     done
   with Exit -> bounded := false);
  if !bounded then begin
    let obj = objective_of s.p0 x in
    update_incumbent s x obj ~bound:(fun () -> obj);
    { no_root with lp_bound = obj }
  end
  else begin
    if (Atomic.get s.inc).i_sol = None then Atomic.set s.unbounded true;
    no_root
  end

(* The root stage, on the sequential drive: the closed form above when
   the reduction left no row; otherwise node 1 of the tallies.  The root
   LP runs cold on the root bounds (node propagation has nothing to add
   there), the root cut loop tightens it, and the result is rounded,
   dived from and branched on like any node.  When the node limit or a
   stop comes first, the root is left open in the heap, where the
   drive's own checks find it. *)
let root s =
  if s.m0 = 0 then box_root s
  else if s.st.t_nodes >= s.o.node_limit || halted s then begin
    Pqueue.push s.queue neg_infinity { nbound = neg_infinity; changes = []; nbasis = None };
    no_root
  end
  else begin
    s.st.t_nodes <- s.st.t_nodes + 1;
    if pruned s neg_infinity then no_root
    else begin
      let lb = Array.copy s.plb and ub = Array.copy s.pub in
      let r = lp_solve s.o s.st ~ws:s.sws ~deadline:s.deadline !(s.pref) ~lb ~ub in
      let optimal = r.Simplex.status = Status.Lp_optimal in
      let lp_bound = if optimal then r.Simplex.objective else nan in
      let r, cut_bound =
        if s.o.cuts && optimal then
          let r = root_cut_loop s r ~lb ~ub in
          (r, r.Simplex.objective)
        else (r, nan)
      in
      settle s ~changes:[] ~lb ~ub r;
      { lp_bound; cut_bound }
    end
  end

(* Nothing left for the sequential drive: an empty heap, a closed gap,
   an unbounded LP, the node limit, the deadline or an interrupt. *)
let seq_done s =
  Pqueue.is_empty s.queue || gap_met s (s.open_bound ()) || Atomic.get s.unbounded
  || s.st.t_nodes >= s.o.node_limit || halted s

(* One turn of the sequential drive past the root: false = the loop is
   over.  Shared verbatim between the plain loop, the scheduler chain
   and the parallel ramp-up below, so all three walk the same tree. *)
let seq_step s =
  if seq_done s then false
  else begin
    (match Pqueue.pop s.queue with
    | Some (_, node) ->
        process s node;
        if s.o.log && s.st.t_nodes mod 500 = 0 then
          Log.info (fun f ->
              f "nodes=%d open=%d incumbent=%g bound=%g" s.st.t_nodes (Pqueue.length s.queue)
                (Atomic.get s.inc).i_obj (s.open_bound ()))
    | None -> ());
    true
  end

(* The local heap's verdict: exhausted when nothing is left open in it
   and no node LP was cut short. *)
let seq_verdict s root =
  let exhausted = (not (Atomic.get s.lp_cut_short)) && Pqueue.is_empty s.queue in
  { root; exhausted; left_open = s.open_bound () }

(* Sequential drive through a shared scheduler: the solve becomes a
   chain of one-node tasks over the same local heap, the root stage
   first.  Exactly one task of this solve exists at any moment (each
   pushes its successor before retiring), so node order and every tally
   replay the plain loop bit-identically, while the scheduler
   interleaves the chain with other solves at node granularity.  The
   advisory key is the heap minimum, keeping cross-solve victim
   selection bound-aware. *)
let seq_via s sched =
  let h = Scheduler.submit sched in
  let rec enqueue () =
    Scheduler.push h ~worker:0 (s.open_bound ()) (fun _slot -> if seq_step s then enqueue ())
  in
  let root_done = ref no_root in
  Scheduler.push h ~worker:0 neg_infinity (fun _slot ->
      root_done := root s;
      enqueue ());
  Scheduler.await h;
  seq_verdict s !root_done

(* The parallel drive on [sched] (owned or shared). *)
let drive_parallel s sched =
  let nslots = Scheduler.nworkers sched in
  (* Phase 1 — sequential ramp-up: the root stage and a few more turns
     of the sequential drive ([seq_step]) until there is enough frontier
     to feed every domain.  All cut-pool and working-problem writes
     happen in this phase; everything workers later read is frozen. *)
  let ramp_width = 2 * nslots in
  let ramp_nodes = 32 in
  let root = root s in
  while Pqueue.length s.queue < ramp_width && s.st.t_nodes < ramp_nodes && seq_step s do () done;
  if seq_done s then seq_verdict s root
  else begin
    (* Phase 2 — freeze the cut-augmented problem, with the flat image
       every worker copy shares, and hand the frontier to the scheduler,
       dealt round-robin so workers start in different subtrees. *)
    ignore (working_rows s);
    let h = Scheduler.submit sched in
    let total_nodes = Atomic.make s.st.t_nodes in
    (* One tally record and one simplex workspace per worker slot: a
       slot runs one task of this solve at a time, so buffers are reused
       across that slot's node re-solves and never shared. *)
    let wts = Array.init nslots (fun _ -> new_tallies ()) in
    let wss = Array.init nslots (fun _ -> Simplex.create_workspace ()) in
    (* Until the deal below has pushed the whole frontier, the nodes
       still in the local heap are invisible to the scheduler; the
       frontier minimum, read before dealing, bounds them. *)
    let frontier = s.open_bound () in
    let dealing = Atomic.make true in
    let open_bound () =
      let b = Scheduler.best_bound h in
      if Atomic.get dealing then Float.min frontier b else b
    in
    (* A worker task: the per-node deadline / interrupt / node-limit
       checks, then the shared [process] on this slot's copy of the
       record (frozen problem, no separation, children pushed to this
       slot's heap); then the gap test.  The scheduler retires each
       task after its children are pushed, preserving the exhaustion
       proof. *)
    let rec wtask node slot =
      if halted s then Scheduler.stop h
      else if Atomic.fetch_and_add total_nodes 1 >= s.o.node_limit then begin
        Atomic.decr total_nodes;
        Scheduler.stop h
      end
      else begin
        process
          { s with st = wts.(slot); sws = wss.(slot); node_cut_budget = 0;
                   offsets = (slot, s.o.seed + (17 * slot)); open_bound;
                   push = (fun key child -> Scheduler.push h ~worker:slot key (wtask child)) }
          node;
        if Atomic.get s.unbounded || gap_met s (open_bound ()) then Scheduler.stop h
      end
    in
    (* Deal the frontier round-robin so workers start in different
       subtrees; the shared pool begins executing as soon as the first
       node lands.  A task that dies mid-node is trapped by the
       scheduler, which stops this solve (not its neighbours) and
       re-raises out of [await]. *)
    let dealt = ref 0 in
    let rec deal () =
      match Pqueue.pop s.queue with
      | Some (k, node) ->
          Scheduler.push h ~worker:!dealt k (wtask node);
          incr dealt;
          deal ()
      | None -> ()
    in
    deal ();
    Atomic.set dealing false;
    Scheduler.await h;
    Array.iter (absorb s.st) wts;
    (* The verdict also folds in the scheduler handle (queued plus
       in-flight nodes). *)
    let v = seq_verdict s root in
    { v with exhausted = v.exhausted && Scheduler.drained h;
             left_open = Float.min (Scheduler.best_bound h) v.left_open }
  end

(* The drives: the plain sequential loop on the caller's thread, the
   chain on a shared scheduler, or the parallel drive on a shared or an
   owned one. *)
let drive s scheduler =
  match scheduler with
  | None when s.o.nworkers <= 1 ->
      let root = root s in
      while seq_step s do () done;
      seq_verdict s root
  | Some sched when s.o.nworkers <= 1 -> seq_via s sched
  | Some sched -> drive_parallel s sched
  | None ->
      let sched = Scheduler.create ~nworkers:s.o.nworkers in
      Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) (fun () -> drive_parallel s sched)

(* The reduction stage: the full presolve stack or the identity, then
   the carried-in incumbent and cuts.  [None] when presolve proves the
   model infeasible. *)
let reduce (o : options) ~sign ~t0 ~seed_cuts ~separators ?warm_solution ?ws ?interrupt
    ?on_incumbent model =
  let p = Simplex.of_model model in
  let nfull = p.Simplex.ncols in
  let integer_full = Array.init nfull (Model.is_integer model) in
  let root_lb = Array.init nfull (Model.var_lb model) in
  let root_ub = Array.init nfull (Model.var_ub model) in
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
     disabled. *)
  let reduced =
    if not o.presolve then
      let post = Postsolve.identity ~ncols:nfull ~nrows:(Array.length p.Simplex.rows) in
      Some (p, integer_full, root_lb, root_ub, post)
    else
      match
        Presolve.reduce ~passes:o.presolve_passes ?essential p ~integer:integer_full
          ~lb:root_lb ~ub:root_ub
      with
      | Presolve.Reduced { red_problem; red_integer; red_lb; red_ub; red_post; _ } ->
          Some (red_problem, red_integer, red_lb, red_ub, red_post)
      | Presolve.Reduce_infeasible _ -> None
  in
  match reduced with
  | None -> None
  | Some (p0, integer, plb, pub, post) ->
      let m0 = Array.length p0.Simplex.rows in
      (* A caller-supplied cutoff acts as a virtual incumbent: it prunes
         but carries no solution vector. *)
      let inc =
        Atomic.make
          { i_obj = (if Float.is_nan o.cutoff then infinity else sign *. o.cutoff); i_sol = None }
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
                   if x.(j) < root_lb.(j) -. feas_tol || x.(j) > root_ub.(j) +. feas_tol then
                     ok := false;
                   if integer_full.(j) && Float.abs (x.(j) -. Float.round x.(j)) > feas_tol then
                     ok := false
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
      let pool = Cuts.create_pool ~max_age:o.cut_max_age ~max_size:o.cut_pool_size () in
      let seeded (c : Cuts.cut) =
        fam o (Cuts.family_of_origin c.Cuts.c_origin)
        &&
        match Cuts.restrict post c with
        | Some c' ->
            Cuts.certify_cover p0 ~nrows:m0 ~integer ~lb:plb ~ub:pub c' && Cuts.add pool c'
        | None -> false
      in
      let cuts_seeded = List.fold_left (fun k c -> if seeded c then k + 1 else k) 0 seed_cuts in
      (* One workspace for the whole sequential drive (root, cut loop,
         dives, node re-solves); worker domains get their own.  An
         incremental session passes its own so the CSC image and solver
         buffers persist across the sweep. *)
      let sws = match ws with Some w -> w | None -> Simplex.create_workspace () in
      let p0_rows = Presolve.flatten p0 and deadline = t0 +. o.time_limit in
      let queue = Pqueue.create () in
      let conflict_tbl = lazy (Conflicts.build p0 ~nrows:m0 ~integer ~lb:plb ~ub:pub) in
      Some
        { o; sign; t0; deadline; interrupt; on_incumbent; separators; p0; m0; p0_rows; integer;
          plb; pub; post; cuts_seeded; inc; pool;
          conflict_tbl; pref = ref p0; pref_rows = Some p0_rows; cut_index = [||];
          applied_cuts = []; node_cut_budget = 8; queue; sws; st = new_tallies (); offsets = (0, 0);
          open_bound = (fun () -> match Pqueue.peek_key queue with Some k -> k | None -> infinity);
          push = Pqueue.push queue; timed_out = Atomic.make false; unbounded = Atomic.make false;
          lp_cut_short = Atomic.make false }

(* The finish stage: status, objective and bound from the drive's
   verdict, then the result record in the model's direction. *)
let finish s { root; exhausted; left_open = open_bound } =
  let { i_obj; i_sol } = Atomic.get s.inc and t = s.st in
  let unbounded = Atomic.get s.unbounded in
  let status =
    if unbounded then Status.Mip_unbounded
    else if i_sol <> None then
      if exhausted || gap_met s open_bound then Status.Mip_optimal else Status.Mip_feasible
      (* With a cutoff installed, an exhausted tree only proves "nothing
         better than the cutoff", not infeasibility. *)
    else if
      exhausted
      && (not (Atomic.get s.timed_out))
      && t.t_nodes < s.o.node_limit && Float.is_nan s.o.cutoff
    then Status.Mip_infeasible
    else Status.Mip_unknown
  in
  let objective, bound =
    match i_sol with
    | _ when unbounded -> (neg_infinity, neg_infinity)
    | Some _ when exhausted -> (i_obj, i_obj)
    | Some _ -> (i_obj, Float.min open_bound i_obj)
    | None -> (infinity, Float.min open_bound i_obj)
  in
  let separated, applied = Cuts.stats s.pool in
  {
    status;
    objective = s.sign *. objective;
    bound = s.sign *. bound;
    (* Incumbents live in reduced space throughout the tree; postsolve
       back to the original index space only here. *)
    solution = (if unbounded then None else Option.map (Postsolve.restore s.post) i_sol);
    nodes = t.t_nodes;
    lp_iterations = t.t_iters;
    lp_warm = t.t_warm;
    lp_cold = t.t_cold;
    lp_fallback = t.t_fallback;
    cuts_separated = separated;
    cuts_applied = applied;
    cuts_seeded = s.cuts_seeded;
    carry_cuts =
      List.map (Cuts.lift s.post) (List.rev_append s.applied_cuts (Cuts.members s.pool));
    bound_pruned = t.t_pruned;
    rc_fixed = t.t_rc;
    root_lp_bound = s.sign *. root.lp_bound;
    root_cut_bound = s.sign *. root.cut_bound;
    presolve_rows_removed = s.post.Postsolve.orig_nrows - Array.length s.post.Postsolve.row_of_red;
    presolve_cols_removed = s.post.Postsolve.orig_ncols - Array.length s.post.Postsolve.col_of_red;
    presolve_reapplied = false;
    elapsed = Clock.now () -. s.t0;
  }

let solve ?(options = default_options) ?(seed_cuts = []) ?(separators = [])
    ?warm_solution ?ws ?interrupt ?on_incumbent ?scheduler model =
  let t0 = Clock.now () in
  let sign = match Model.direction model with Model.Minimize -> 1.0 | Model.Maximize -> -1.0 in
  match
    reduce options ~sign ~t0 ~seed_cuts ~separators ?warm_solution ?ws ?interrupt ?on_incumbent
      model
  with
  | None ->
      { status = Status.Mip_infeasible; objective = sign *. infinity; bound = sign *. infinity;
        solution = None; nodes = 0; lp_iterations = 0; lp_warm = 0; lp_cold = 0; lp_fallback = 0;
        cuts_separated = 0; cuts_applied = 0; cuts_seeded = 0; carry_cuts = []; bound_pruned = 0;
        rc_fixed = 0; root_lp_bound = nan; root_cut_bound = nan; presolve_rows_removed = 0;
        presolve_cols_removed = 0; presolve_reapplied = false; elapsed = Clock.now () -. t0 }
  | Some s -> finish s (drive s scheduler)
