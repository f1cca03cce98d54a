module FA = Float.Array

type problem = {
  ncols : int;
  rows : (int * float) array array;
  senses : Model.sense array;
  rhs : float array;
  obj : float array;
  obj_const : float;
}

type warm_kind = Cold | Warm | Warm_fallback

type pricing = Dantzig | Devex

type result = {
  status : Status.lp_status;
  objective : float;
  primal : float array;
  iterations : int;
  basis : Basis.t option;
  warm : warm_kind;
}

let of_model m =
  let n = Model.nvars m in
  let dir, obj_expr = Model.objective m in
  let sign = match dir with Model.Minimize -> 1.0 | Model.Maximize -> -1.0 in
  let obj = Array.make n 0. in
  Lin.iter (fun v c -> if v < n then obj.(v) <- sign *. c) obj_expr;
  let nr = Model.nconstrs m in
  let rows = Array.make nr [||] and senses = Array.make nr Model.Le and rhs = Array.make nr 0. in
  for r = 0 to nr - 1 do
    let terms, sense, b = Model.row m r in
    rows.(r) <- terms;
    senses.(r) <- sense;
    rhs.(r) <- b
  done;
  { ncols = n; rows; senses; rhs; obj; obj_const = sign *. Lin.constant obj_expr }

(* Nonbasic variable status.  Basic variables are tracked via [basis].
   Shared with {!Basis} so snapshots can be restored without
   translation. *)
type vstat = Basis.vstat = Basic | At_lower | At_upper | Free_zero

(* ------------------------------------------------------------------ *)
(* Per-worker workspace (arena)                                        *)
(* ------------------------------------------------------------------ *)

(* Everything a solve needs beyond the problem snapshot itself: the
   compressed-sparse-column image of the constraint matrix (structural
   columns, then unit slack columns, then unit artificial columns), a
   compressed-sparse-row image of its structural rows for the pivot
   row, and every working array of the solver state.  A workspace is
   owned by one caller at a time — branch & bound keeps one per worker
   domain and threads it through thousands of node re-solves, which
   removes the per-solve array allocations that used to dominate
   minor-GC pressure.  The CSC and CSR images are cached on the
   physical identity of [p.rows]: node re-solves of the same problem
   reuse them untouched (only the artificial signs, which depend on the
   starting residual, are rewritten in place), and a cut-grown problem
   misses the cache and rebuilds.

   Working arrays ([a_*]) are exact-sized (reallocated only when the
   problem shape changes) so snapshots and tableau copies need no
   slicing.  The images themselves ([coli]/[colv], [rowj]/[rowv], plus
   the count/fill scratch) grow monotonically and are reused across
   rebuilds: every read goes through [colp]/[rowp] offsets, so spare
   capacity past the live nonzeros is never observed.  With the
   presolve reduction shrinking and cuts regrowing the row set every
   few nodes, this turns the rebuild from fresh allocations per cache
   miss into in-place refills once high-water capacity is reached. *)
type workspace = {
  mutable c_rows : (int * float) array array;  (* CSC cache key *)
  mutable c_n : int;
  mutable c_m : int;
  mutable colp : int array;  (* column start offsets, length >= ntot+1 *)
  mutable coli : int array;  (* row indices *)
  mutable colv : floatarray;  (* values, parallel to [coli] *)
  mutable c_scratch : int array;  (* counts/fill cursors for rebuilds *)
  mutable rowp : int array;  (* CSR image of the structural rows: starts, length >= m+1 *)
  mutable rowj : int array;  (* column indices *)
  mutable rowv : floatarray;  (* values, parallel to [rowj] *)
  mutable a_lb : float array;  (* working bounds, length ntot *)
  mutable a_ub : float array;
  mutable a_cost : float array;
  mutable a_stat : vstat array;
  mutable a_basis : int array;  (* length m *)
  mutable a_xb : float array;
  mutable a_wy : float array;
  mutable a_ww : float array;
  mutable a_wrho : float array;
  mutable a_wres : float array;
  mutable a_dred : float array;  (* maintained reduced costs (devex) *)
  mutable a_dw : float array;  (* devex reference weights *)
  mutable a_rw : float array;  (* dual devex row weights, length m *)
  mutable a_wflip : float array;  (* bound-flip residual accumulator *)
  mutable a_cnd : int array;  (* dual ratio-test candidates *)
  mutable a_cnda : float array;
  mutable a_cndr : float array;
  mutable a_cndo : int array;  (* their ratio order (bound flipping) *)
  mutable a_alpha : float array;  (* pivot row, column-indexed *)
  mutable a_touch : int array;  (* the columns it touched *)
  mutable a_mark : Bytes.t;  (* first-touch marks, all clear between calls *)
}

let create_workspace () =
  {
    c_rows = [||]; c_n = -1; c_m = -1;
    colp = [| 0 |]; coli = [||]; colv = FA.create 0; c_scratch = [||];
    rowp = [| 0 |]; rowj = [||]; rowv = FA.create 0;
    a_lb = [||]; a_ub = [||]; a_cost = [||]; a_stat = [||];
    a_basis = [||]; a_xb = [||]; a_wy = [||]; a_ww = [||];
    a_wrho = [||]; a_wres = [||]; a_dred = [||]; a_dw = [||]; a_rw = [||];
    a_wflip = [||]; a_cnd = [||]; a_cnda = [||]; a_cndr = [||]; a_cndo = [||];
    a_alpha = [||]; a_touch = [||]; a_mark = Bytes.empty;
  }

let ensure_f a n = if Array.length a = n then a else Array.make n 0.
let ensure_i a n = if Array.length a = n then a else Array.make n 0
let ensure_s a n = if Array.length a = n then a else Array.make n At_lower
let ensure_b b n = if Bytes.length b = n then b else Bytes.make n '\000'

(* Build (or reuse) the CSC image of the full column set, and next to
   it, under the same cache key, the CSR image of the structural rows
   that {!pivot_row} walks.  Structural entries appear in the same
   row-major order the old per-column tuple arrays held, so dot
   products against them are arithmetically identical to the PR5
   kernel. *)
let build_csc ws p m =
  let n = p.ncols in
  let ntot = n + (2 * m) in
  if ws.c_rows == p.rows && ws.c_n = n && ws.c_m = m then ()
  else begin
    (* Grow-only storage: reuse the previous arrays whenever capacity
       allows; readers never look past the [colp] offsets. *)
    if Array.length ws.c_scratch < ntot then ws.c_scratch <- Array.make ntot 0
    else Array.fill ws.c_scratch 0 ntot 0;
    let counts = ws.c_scratch in
    Array.iter
      (fun row -> Array.iter (fun (j, _) -> counts.(j) <- counts.(j) + 1) row)
      p.rows;
    for i = 0 to m - 1 do
      counts.(n + i) <- 1;
      counts.(n + m + i) <- 1
    done;
    if Array.length ws.colp < ntot + 1 then ws.colp <- Array.make (ntot + 1) 0;
    let colp = ws.colp in
    colp.(0) <- 0;
    for j = 0 to ntot - 1 do
      colp.(j + 1) <- colp.(j) + counts.(j)
    done;
    let nnz = colp.(ntot) in
    if Array.length ws.coli < nnz then ws.coli <- Array.make nnz 0;
    if FA.length ws.colv < nnz then ws.colv <- FA.create nnz;
    let coli = ws.coli and colv = ws.colv in
    let snnz = colp.(n) in
    if Array.length ws.rowp < m + 1 then ws.rowp <- Array.make (m + 1) 0;
    if Array.length ws.rowj < snnz then ws.rowj <- Array.make snnz 0;
    if FA.length ws.rowv < snnz then ws.rowv <- FA.create snnz;
    let rowp = ws.rowp and rowj = ws.rowj and rowv = ws.rowv in
    (* [counts] is consumed; reuse its prefix as per-column fill cursors. *)
    Array.fill counts 0 n 0;
    let fill = counts in
    let r = ref 0 in
    Array.iteri
      (fun i row ->
        rowp.(i) <- !r;
        Array.iter
          (fun (j, a) ->
            let k = colp.(j) + fill.(j) in
            coli.(k) <- i;
            FA.set colv k a;
            fill.(j) <- fill.(j) + 1;
            rowj.(!r) <- j;
            FA.set rowv !r a;
            incr r)
          row)
      p.rows;
    rowp.(m) <- !r;
    for i = 0 to m - 1 do
      coli.(colp.(n + i)) <- i;
      FA.set colv colp.(n + i) 1.0;
      coli.(colp.(n + m + i)) <- i;
      FA.set colv colp.(n + m + i) 1.0
    done;
    ws.c_rows <- p.rows;
    ws.c_n <- n;
    ws.c_m <- m
  end

type state = {
  p : problem;
  m : int;  (* rows *)
  ntot : int;  (* structural + slack + artificial columns *)
  colp : int array;  (* CSC columns, see {!workspace} *)
  coli : int array;
  colv : floatarray;
  rowp : int array;  (* CSR structural rows, see {!build_csc} *)
  rowj : int array;
  rowv : floatarray;
  lb : float array;  (* working bounds, length ntot *)
  ub : float array;
  stat : vstat array;
  basis : int array;  (* column basic in each row *)
  pricing : pricing;
  harris : bool;
  mutable kern : Lu.t;  (* factorization of the basis matrix *)
  xb : float array;  (* values of basic variables per row *)
  cost : float array;  (* current-phase cost, length ntot *)
  (* Scratch vectors from the workspace, reused by every iteration
     (pricing, ratio test, dual repair, tableau rows) and across node
     re-solves. *)
  wy : float array;  (* dual prices, row-indexed *)
  ww : float array;  (* entering column FTRAN image, position-indexed *)
  wrho : float array;  (* row of B^-1 (dual pricing / tableau rows) *)
  wres : float array;  (* RHS residual under the nonbasic assignment *)
  dred : float array;  (* maintained reduced costs (devex pricing) *)
  dw : float array;  (* devex reference-framework weights *)
  rw : float array;  (* dual devex row weights, position-indexed *)
  wflip : float array;  (* combined bound-flip column, row-indexed *)
  cnd : int array;  (* dual-loop candidate columns *)
  cnd_a : float array;  (* their pivot-row coefficients *)
  cnd_r : float array;  (* their dual ratios *)
  cnd_o : int array;  (* candidate indices in ratio order *)
  alpha : float array;  (* pivot row alpha_r, read through [touch] *)
  touch : int array;  (* columns of the last {!pivot_row}, first-touch order *)
  mark : Bytes.t;  (* {!pivot_row}'s first-touch marks *)
  mutable d_valid : bool;  (* [dred] tracks the current basis *)
  mutable d_fresh : bool;  (* [dred] is exactly what [refresh_dred] would give *)
  mutable niter : int;
  mutable degen_count : int;
  mutable bland : bool;
  mutable price_ptr : int;  (* partial-pricing scan cursor *)
}

let pivot_tol = 1e-9

(* Harris ratio test: bounds are relaxed by this much in the first pass;
   the second pass picks the largest pivot among the candidates the
   relaxation admits.  Matches the primal feasibility tolerance. *)
let harris_tol = 1e-7

let nb_value st j =
  match st.stat.(j) with
  | At_lower -> st.lb.(j)
  | At_upper -> st.ub.(j)
  | Free_zero -> 0.
  | Basic -> invalid_arg "nb_value: basic"

(* Factorize the basis matrix whose column at position [i] is CSC
   column [basis.(i)]; [Lu.factorize_csc] reads the CSC buffers in
   place.  It runs when the update log goes stale ([Lu.stale]) or an
   update fails its stability test, at the end of each cold solve, and
   on restoring a stale snapshot (DESIGN §5f gives the counts). *)
let factor_basis ~m colp coli colv basis = Lu.factorize_csc ~m ~colp ~coli ~colv basis

(* ------------------------------------------------------------------ *)
(* Kernel operations                                                   *)
(* ------------------------------------------------------------------ *)

(* y = c_B^T B^{-1}, into [st.wy] (row-indexed). *)
let compute_duals st =
  for i = 0 to st.m - 1 do
    st.wy.(i) <- st.cost.(st.basis.(i))
  done;
  Lu.btran st.kern st.wy

(* w = B^{-1} A_j, into [st.ww] (position-indexed); the kernel keeps
   the spike for the pivot that may follow. *)
let ftran_col st j =
  Array.fill st.ww 0 st.m 0.;
  for k = st.colp.(j) to st.colp.(j + 1) - 1 do
    let r = st.coli.(k) in
    st.ww.(r) <- st.ww.(r) +. FA.get st.colv k
  done;
  Lu.ftran_spike st.kern st.ww

(* rho = e_r^T B^{-1} (row [r] of the inverse), into [st.wrho]
   (row-indexed). *)
let binv_row st r =
  Array.fill st.wrho 0 st.m 0.;
  st.wrho.(r) <- 1.0;
  Lu.btran st.kern st.wrho

(* [binv_row st r; compute_duals st], bit for bit, with one paired
   BTRAN sweep over the factor instead of two.  Only the dual loop's
   fresh pivots use it: the first of each call and the one after a
   drift check fires ({!dual_simplex}). *)
let binv_row_and_duals st r =
  Array.fill st.wrho 0 st.m 0.;
  st.wrho.(r) <- 1.0;
  for i = 0 to st.m - 1 do
    st.wy.(i) <- st.cost.(st.basis.(i))
  done;
  Lu.btran2 st.kern st.wrho st.wy

(* [reduced_cost] and [price_score] return a float and run once per
   column in every pricing pass.  Keep them inlined: a call that is
   not boxes its result, about 6,000 words per root-LP iteration on
   [tactical-root], and the extra minor collections promote
   short-lived data and raise peak RSS (about 3 MB on a two-pass
   benchmark run). *)
let[@inline] reduced_cost st y j =
  let d = ref st.cost.(j) in
  for k = st.colp.(j) to st.colp.(j + 1) - 1 do
    d := !d -. (y.(Array.unsafe_get st.coli k) *. FA.unsafe_get st.colv k)
  done;
  !d

(* rho-dot: alpha_rj = rho^T A_j for a row vector [rho] of B^{-1}, one
   walk over column j: the per-column reference that {!pivot_row}
   reproduces ([Probe.rho_dot]). *)
let[@inline] rho_dot st rho j =
  let a = ref 0. in
  for k = st.colp.(j) to st.colp.(j + 1) - 1 do
    a := !a +. (rho.(Array.unsafe_get st.coli k) *. FA.unsafe_get st.colv k)
  done;
  !a

(* The pivot row alpha_r = rho^T [A I] over the rows where rho is
   nonzero: the structural part from the CSR image, then each such
   row's slack and artificial unit column.  Fills [st.alpha] for the
   columns it lists in [st.touch], in first-touch order, and returns
   their count; entries of [st.alpha] off that list are stale.  Rows
   are visited in increasing order, so every alpha_rj adds the same
   products in the same order as [rho_dot] and the two agree bit for
   bit (up to the sign of a zero).  Allocates nothing. *)
let pivot_row st rho =
  let n = st.p.ncols and m = st.m in
  let alpha = st.alpha and touch = st.touch and mark = st.mark in
  let cnt = ref 0 in
  for i = 0 to m - 1 do
    let ri = rho.(i) in
    if ri <> 0. then begin
      for k = st.rowp.(i) to st.rowp.(i + 1) - 1 do
        let j = Array.unsafe_get st.rowj k in
        let v = ri *. FA.unsafe_get st.rowv k in
        if Bytes.unsafe_get mark j = '\000' then begin
          Bytes.unsafe_set mark j '\001';
          alpha.(j) <- v;
          touch.(!cnt) <- j;
          incr cnt
        end
        else alpha.(j) <- alpha.(j) +. v
      done;
      let s = n + i and a = n + m + i in
      alpha.(s) <- ri;
      alpha.(a) <- ri *. FA.get st.colv st.colp.(a);
      touch.(!cnt) <- s;
      touch.(!cnt + 1) <- a;
      cnt := !cnt + 2
    end
  done;
  for t = 0 to !cnt - 1 do
    Bytes.unsafe_set mark (Array.unsafe_get touch t) '\000'
  done;
  !cnt

(* xb = B^{-1} (b - N x_N) under the current kernel and bounds. *)
let recompute_xb st =
  let resid = st.wres in
  Array.blit st.p.rhs 0 resid 0 st.m;
  for j = 0 to st.ntot - 1 do
    if st.stat.(j) <> Basic then begin
      let v = nb_value st j in
      if v <> 0. then
        for k = st.colp.(j) to st.colp.(j + 1) - 1 do
          let i = st.coli.(k) in
          resid.(i) <- resid.(i) -. (FA.get st.colv k *. v)
        done
    end
  done;
  Array.blit resid 0 st.xb 0 st.m;
  Lu.ftran st.kern st.xb

(* Rebuild the factorization (and xb) from scratch — numerical hygiene.
   Returns false, leaving the state untouched, when the basis matrix is
   singular or fails its conditioning probe. *)
let refactorize st =
  match factor_basis ~m:st.m st.colp st.coli st.colv st.basis with
  | Some lu ->
      st.kern <- lu;
      st.d_fresh <- false;
      recompute_xb st;
      true
  | None -> false

(* Basis change at position [r]: a Forrest–Tomlin update from the
   spike the entering column's FTRAN ([ftran_col]) kept, [w] its image.
   This is the only refactorization rule of a solve: an update that
   fails its stability test, or a log grown stale ([Lu.stale]),
   triggers an immediate refactorization, which also recomputes the
   basic values. *)
let kernel_update st r w =
  let stable = Lu.replace st.kern ~r ~alpha:w.(r) in
  if (not stable) || Lu.stale st.kern then ignore (refactorize st)

(* ------------------------------------------------------------------ *)
(* Pricing                                                             *)
(* ------------------------------------------------------------------ *)

let[@inline] price_score st d j =
  match st.stat.(j) with
  | At_lower -> -.d
  | At_upper -> d
  | Free_zero -> Float.abs d
  | Basic -> 0.

(* Select the entering column, or None at (phase-)optimality.

   Dantzig mode: partial (candidate-list) pricing — scan a block of
   columns starting at the cursor, return the best candidate of the
   first block that has one, and resume the next iteration where this
   one left off.  An iteration therefore prices O(block) columns
   instead of all of them; only a (phase-)optimal iteration pays for the
   full wrap that proves no candidate exists.  Under Bland's rule the
   scan is the classic full lowest-index pass, preserving the
   termination guarantee. *)
let price st ~dual_tol =
  compute_duals st;
  let y = st.wy in
  if st.bland then begin
    let best = ref None in
    let j = ref 0 in
    while !best = None && !j < st.ntot do
      let jj = !j in
      if st.stat.(jj) <> Basic && st.lb.(jj) < st.ub.(jj) then begin
        let d = reduced_cost st y jj in
        if price_score st d jj > dual_tol then best := Some (jj, d)
      end;
      incr j
    done;
    !best
  end
  else begin
    let ntot = st.ntot in
    let block =
      let b = if ntot / 16 > 128 then ntot / 16 else 128 in
      if b >= ntot then ntot else b
    in
    let best = ref None and best_score = ref dual_tol in
    let scanned = ref 0 in
    let ptr = ref st.price_ptr in
    while !best = None && !scanned < ntot do
      let upto = if block < ntot - !scanned then block else ntot - !scanned in
      for t = 0 to upto - 1 do
        let j =
          let j = !ptr + t in
          if j >= ntot then j - ntot else j
        in
        if st.stat.(j) <> Basic && st.lb.(j) < st.ub.(j) then begin
          let d = reduced_cost st y j in
          let score = price_score st d j in
          if score > !best_score then begin
            best := Some (j, d);
            best_score := score
          end
        end
      done;
      ptr := (let p = !ptr + upto in if p >= ntot then p - ntot else p);
      scanned := !scanned + upto
    done;
    st.price_ptr <- !ptr;
    !best
  end

(* Devex reference-framework pricing (Harris '73 weights): pick the
   entering column maximizing d_j^2 / gamma_j, where gamma_j
   approximates the steepest-edge norm ||B^{-1} A_j||^2 relative to the
   reference framework (the nonbasic set at the last reset, where all
   gamma = 1).  Reduced costs are maintained incrementally from the
   pivot row — see {!devex_update} — so a pricing pass is a flat scan of
   two unboxed arrays, with a full refresh (BTRAN of the duals + column
   sweep) only at phase entry, periodically for drift control, and to
   confirm optimality before it is declared. *)
let refresh_dred st =
  compute_duals st;
  let y = st.wy in
  for j = 0 to st.ntot - 1 do
    st.dred.(j) <- (if st.stat.(j) = Basic then 0. else reduced_cost st y j)
  done;
  st.d_valid <- true;
  st.d_fresh <- true

let reset_devex st = Array.fill st.dw 0 st.ntot 1.0

let devex_price st ~dual_tol =
  let best = ref (-1) and best_score = ref 0. and best_d = ref 0. in
  for j = 0 to st.ntot - 1 do
    if st.stat.(j) <> Basic && st.lb.(j) < st.ub.(j) then begin
      let d = st.dred.(j) in
      if price_score st d j > dual_tol then begin
        let s = d *. d /. st.dw.(j) in
        if s > !best_score then begin
          best := j;
          best_score := s;
          best_d := d
        end
      end
    end
  done;
  if !best < 0 then None else Some (!best, !best_d)

(* Post-ratio-test devex bookkeeping, called {e before} the basis
   changes: with entering column [q] pivoting at row [r] (pivot element
   [alpha_rq] = its FTRAN image at [r]), one BTRAN gives rho = e_r^T
   B^-1, {!pivot_row} turns it into the pivot row over rho's nonzero
   rows, and one pass over the columns that row touched updates both
   the maintained reduced costs (d_j -= theta * alpha_rj) and the devex
   weights (gamma_j = max(gamma_j, alpha_rj^2 * gamma_q / alpha_rq^2));
   an untouched column has alpha_rj = 0 and keeps both.  The leaving
   variable enters the nonbasic set with the transformed weight of the
   entering one.  Weights that outgrow 1e8 trigger a reference reset
   (all gamma back to 1). *)
let devex_update st ~q ~r ~alpha_rq =
  binv_row st r;
  let nrow = pivot_row st st.wrho in
  let leaving = st.basis.(r) in
  let theta = st.dred.(q) /. alpha_rq in
  let gq = st.dw.(q) /. (alpha_rq *. alpha_rq) in
  let wmax = ref 1.0 in
  for t = 0 to nrow - 1 do
    let j = st.touch.(t) in
    if j <> q && st.stat.(j) <> Basic then begin
      let arj = st.alpha.(j) in
      if arj <> 0. then begin
        st.dred.(j) <- st.dred.(j) -. (theta *. arj);
        let cand = arj *. arj *. gq in
        if cand > st.dw.(j) then st.dw.(j) <- cand;
        if st.dw.(j) > !wmax then wmax := st.dw.(j)
      end
    end
  done;
  st.dred.(q) <- 0.;
  st.dred.(leaving) <- -.theta;
  st.dw.(leaving) <- Float.max gq 1.0;
  st.dw.(q) <- 1.0;
  if !wmax > 1e8 then reset_devex st

type ratio_outcome =
  | Unbounded
  | Bound_flip of float
  | Leave of { row : int; t : float; to_upper : bool }

(* Classic textbook ratio test: smallest ratio wins, ties broken by the
   larger pivot (or the lower index under Bland's rule). *)
let ratio_test_classic st j sigma w =
  let span = st.ub.(j) -. st.lb.(j) in
  let best_t = ref (if Float.is_finite span then span else infinity) in
  let leave = ref None in
  for i = 0 to st.m - 1 do
    let wi = w.(i) in
    if Float.abs wi > pivot_tol then begin
      let k = st.basis.(i) in
      let dx = -.sigma *. wi in
      let t, to_upper =
        if dx > 0. then
          (if Float.is_finite st.ub.(k) then (st.ub.(k) -. st.xb.(i)) /. dx else infinity), true
        else (if Float.is_finite st.lb.(k) then (st.lb.(k) -. st.xb.(i)) /. dx else infinity), false
      in
      let t = Float.max t 0. in
      let better =
        t < !best_t -. 1e-12
        || (t <= !best_t +. 1e-12
            &&
            match !leave with
            | None -> true
            | Some (r, _) ->
                if st.bland then st.basis.(i) < st.basis.(r)
                else Float.abs wi > Float.abs w.(r))
      in
      if better then begin
        best_t := Float.min t !best_t;
        leave := Some (i, to_upper)
      end
    end
  done;
  match !leave with
  | None -> if Float.is_finite !best_t then Bound_flip !best_t else Unbounded
  | Some (r, to_upper) ->
      if Float.is_finite span && span <= !best_t then Bound_flip span
      else if Float.is_finite !best_t then Leave { row = r; t = !best_t; to_upper }
      else Unbounded

(* Harris two-pass ratio test: pass 1 finds the smallest ratio with the
   blocking bounds relaxed by [harris_tol]; pass 2 picks, among the rows
   whose relaxed ratio fits under that minimum, the one with the largest
   pivot magnitude.  The step taken is the chosen row's true
   (unrelaxed) ratio clamped at zero — a slightly-negative true ratio is
   a degenerate step executed on a large, numerically safe pivot, which
   is exactly the point of the test. *)
let ratio_test_harris st j sigma w =
  let span = st.ub.(j) -. st.lb.(j) in
  let tmax = ref (if Float.is_finite span then span +. harris_tol else infinity) in
  for i = 0 to st.m - 1 do
    let wi = w.(i) in
    if Float.abs wi > pivot_tol then begin
      let k = st.basis.(i) in
      let dx = -.sigma *. wi in
      let t =
        if dx > 0. then
          if Float.is_finite st.ub.(k) then (st.ub.(k) +. harris_tol -. st.xb.(i)) /. dx
          else infinity
        else if Float.is_finite st.lb.(k) then
          (st.lb.(k) -. harris_tol -. st.xb.(i)) /. dx
        else infinity
      in
      let t = Float.max t 0. in
      if t < !tmax then tmax := t
    end
  done;
  if not (Float.is_finite !tmax) then
    if Float.is_finite span then Bound_flip span else Unbounded
  else begin
    let best = ref (-1) and best_a = ref 0. and best_t = ref 0. and best_up = ref false in
    for i = 0 to st.m - 1 do
      let wi = w.(i) in
      if Float.abs wi > pivot_tol && Float.abs wi > !best_a then begin
        let k = st.basis.(i) in
        let dx = -.sigma *. wi in
        let t_rel, t_true, up =
          if dx > 0. then
            if Float.is_finite st.ub.(k) then
              ( (st.ub.(k) +. harris_tol -. st.xb.(i)) /. dx,
                (st.ub.(k) -. st.xb.(i)) /. dx,
                true )
            else (infinity, infinity, true)
          else if Float.is_finite st.lb.(k) then
            ( (st.lb.(k) -. harris_tol -. st.xb.(i)) /. dx,
              (st.lb.(k) -. st.xb.(i)) /. dx,
              false )
          else (infinity, infinity, false)
        in
        if t_rel <= !tmax then begin
          best := i;
          best_a := Float.abs wi;
          best_t := Float.max t_true 0.;
          best_up := up
        end
      end
    done;
    if !best < 0 then if Float.is_finite span then Bound_flip span else Unbounded
    else if Float.is_finite span && span <= !best_t then Bound_flip span
    else Leave { row = !best; t = !best_t; to_upper = !best_up }
  end

let ratio_test st j sigma w =
  if st.harris && not st.bland then ratio_test_harris st j sigma w
  else ratio_test_classic st j sigma w

let apply_step st sigma w t =
  if t <> 0. then
    for i = 0 to st.m - 1 do
      st.xb.(i) <- st.xb.(i) -. (sigma *. w.(i) *. t)
    done

let pivot st j sigma w r t ~to_upper =
  let enter_val = nb_value st j +. (sigma *. t) in
  let leaving = st.basis.(r) in
  st.stat.(leaving) <- (if to_upper then At_upper else At_lower);
  (* Snap the leaving variable exactly onto its bound. *)
  st.basis.(r) <- j;
  st.stat.(j) <- Basic;
  st.xb.(r) <- enter_val;
  st.d_fresh <- false;
  kernel_update st r w

let current_objective st =
  let total = ref 0. in
  for j = 0 to st.ntot - 1 do
    if st.stat.(j) <> Basic && st.cost.(j) <> 0. then
      total := !total +. (st.cost.(j) *. nb_value st j)
  done;
  for i = 0 to st.m - 1 do
    let c = st.cost.(st.basis.(i)) in
    if c <> 0. then total := !total +. (c *. st.xb.(i))
  done;
  !total

(* Snapshot the basis header plus the sparse factor of the basis
   matrix, so node records cost O(nonzeros) instead of O(m²). *)
let snapshot st =
  Basis.make ~ncols:st.p.ncols ~nrows:st.m ~basis:st.basis ~stat:st.stat
    ~factor:(Some (Lu.snapshot st.kern))

(* Shared prologue of [init_state] and [warm_state]: size the workspace
   for [p], load the structural working bounds and encode each row's
   sense in its slack's bounds (a.x + s = b). *)
let prepare_workspace (ws : workspace) p ~lb:wlb ~ub:wub =
  let m = Array.length p.rows in
  let n = p.ncols in
  let ntot = n + (2 * m) in
  build_csc ws p m;
  ws.a_lb <- ensure_f ws.a_lb ntot;
  ws.a_ub <- ensure_f ws.a_ub ntot;
  ws.a_cost <- ensure_f ws.a_cost ntot;
  ws.a_stat <- ensure_s ws.a_stat ntot;
  ws.a_basis <- ensure_i ws.a_basis m;
  ws.a_xb <- ensure_f ws.a_xb m;
  ws.a_wy <- ensure_f ws.a_wy m;
  ws.a_ww <- ensure_f ws.a_ww m;
  ws.a_wrho <- ensure_f ws.a_wrho m;
  ws.a_wres <- ensure_f ws.a_wres m;
  ws.a_dred <- ensure_f ws.a_dred ntot;
  ws.a_dw <- ensure_f ws.a_dw ntot;
  ws.a_rw <- ensure_f ws.a_rw m;
  ws.a_wflip <- ensure_f ws.a_wflip m;
  ws.a_cnd <- ensure_i ws.a_cnd ntot;
  ws.a_cnda <- ensure_f ws.a_cnda ntot;
  ws.a_cndr <- ensure_f ws.a_cndr ntot;
  ws.a_cndo <- ensure_i ws.a_cndo ntot;
  ws.a_alpha <- ensure_f ws.a_alpha ntot;
  ws.a_touch <- ensure_i ws.a_touch ntot;
  ws.a_mark <- ensure_b ws.a_mark ntot;
  let lb = ws.a_lb and ub = ws.a_ub in
  Array.blit wlb 0 lb 0 n;
  Array.blit wub 0 ub 0 n;
  for i = 0 to m - 1 do
    let s = n + i in
    match p.senses.(i) with
    | Model.Le ->
        lb.(s) <- 0.;
        ub.(s) <- infinity
    | Model.Ge ->
        lb.(s) <- neg_infinity;
        ub.(s) <- 0.
    | Model.Eq ->
        lb.(s) <- 0.;
        ub.(s) <- 0.
  done

(* A solver state over the arrays [prepare_workspace] sized, with
   basis factor [kern]. *)
let state_of_workspace ~pricing ~harris (ws : workspace) p ~kern =
  let m = Array.length p.rows in
  { p; m; ntot = p.ncols + (2 * m);
    colp = ws.colp; coli = ws.coli; colv = ws.colv;
    rowp = ws.rowp; rowj = ws.rowj; rowv = ws.rowv;
    lb = ws.a_lb; ub = ws.a_ub; stat = ws.a_stat; basis = ws.a_basis;
    pricing; harris; kern; xb = ws.a_xb; cost = ws.a_cost;
    wy = ws.a_wy; ww = ws.a_ww; wrho = ws.a_wrho; wres = ws.a_wres;
    dred = ws.a_dred; dw = ws.a_dw; rw = ws.a_rw; wflip = ws.a_wflip;
    cnd = ws.a_cnd; cnd_a = ws.a_cnda; cnd_r = ws.a_cndr; cnd_o = ws.a_cndo;
    alpha = ws.a_alpha; touch = ws.a_touch; mark = ws.a_mark;
    d_valid = false; d_fresh = false; niter = 0; degen_count = 0; bland = false;
    price_ptr = 0 }

let init_state ~pricing ~harris ~(ws : workspace) p ~lb ~ub =
  prepare_workspace ws p ~lb ~ub;
  let m = Array.length p.rows in
  let n = p.ncols in
  let ntot = n + (2 * m) in
  let colp = ws.colp and coli = ws.coli and colv = ws.colv in
  let lb = ws.a_lb and ub = ws.a_ub in
  let stat = ws.a_stat in
  for j = 0 to n - 1 do
    stat.(j) <-
      (if Float.is_finite lb.(j) then At_lower
       else if Float.is_finite ub.(j) then At_upper
       else Free_zero)
  done;
  (* Row residuals under the nonbasic assignment. *)
  let resid = ws.a_wres in
  Array.blit p.rhs 0 resid 0 m;
  for j = 0 to n - 1 do
    let v =
      match stat.(j) with
      | At_lower -> lb.(j)
      | At_upper -> ub.(j)
      | Free_zero | Basic -> 0.
    in
    if v <> 0. then
      for k = colp.(j) to colp.(j + 1) - 1 do
        resid.(coli.(k)) <- resid.(coli.(k)) -. (FA.get colv k *. v)
      done
  done;
  let basis = ws.a_basis in
  let xb = ws.a_xb in
  let cost = ws.a_cost in
  Array.fill cost 0 ntot 0.;
  for i = 0 to m - 1 do
    let s = n + i and art = n + m + i in
    let r = resid.(i) in
    if r >= lb.(s) -. 1e-12 && r <= ub.(s) +. 1e-12 then begin
      (* Slack basic at the residual value; artificial unused. *)
      basis.(i) <- s;
      stat.(s) <- Basic;
      xb.(i) <- r;
      FA.set colv colp.(art) 1.0;
      stat.(art) <- At_lower;
      lb.(art) <- 0.;
      ub.(art) <- 0.
    end
    else begin
      (* Slack pinned at its nearest bound (0 in all senses); an
         artificial with sign g carries the residual: x_art = |r| >= 0. *)
      let g = if r >= 0. then 1.0 else -1.0 in
      FA.set colv colp.(art) g;
      stat.(s) <- At_lower;
      (match p.senses.(i) with
      | Model.Ge -> stat.(s) <- At_upper
      | Model.Le | Model.Eq -> ());
      basis.(i) <- art;
      stat.(art) <- Basic;
      lb.(art) <- 0.;
      ub.(art) <- infinity;
      xb.(i) <- Float.abs r;
      cost.(art) <- 1.0 (* phase-1 cost *)
    end
  done;
  (* The starting basis matrix is a ±1 diagonal, whose factorization
     cannot fail. *)
  match factor_basis ~m colp coli colv basis with
  | Some kern -> state_of_workspace ~pricing ~harris ws p ~kern
  | None -> invalid_arg "Simplex.init_state: singular starting basis"

(* Rebuild a solver state from a prior optimal basis under new working
   bounds.  The column layout matches [init_state]; artificial columns
   are sealed at zero with a +1 sign (any nonsingular sign choice
   represents the same sealed variable, and a basic artificial must sit
   at zero anyway — the dual loop repairs it if the new bounds moved
   it).  The snapshot's stored factor is reopened verbatim — the basis
   matrix depends only on which columns are basic, not on bounds — so a
   restore normally costs one sparse FTRAN of the right-hand side; only
   a snapshot whose update log is stale by the rule [kernel_update]
   refactorizes on ([Lu.factor_stale]), or one without a factor, pays
   for a fresh factorization, so warm-started chains see no more drift
   than one long solve.  Returns [None] when such a
   refresh finds the inherited basis matrix singular. *)
let warm_state ~pricing ~harris ~(ws : workspace) p ~lb ~ub (b : Basis.t) =
  prepare_workspace ws p ~lb ~ub;
  let m = Array.length p.rows in
  let n = p.ncols in
  let ntot = n + (2 * m) in
  let lb = ws.a_lb and ub = ws.a_ub in
  for i = 0 to m - 1 do
    let art = n + m + i in
    FA.set ws.colv ws.colp.(art) 1.0;
    lb.(art) <- 0.;
    ub.(art) <- 0.
  done;
  let stat = ws.a_stat in
  for j = 0 to ntot - 1 do
    stat.(j) <- Basis.status b j
  done;
  (* Nonbasic statuses must reference bounds that exist under the new
     box; reconcile the few that a bound change invalidated. *)
  for j = 0 to ntot - 1 do
    match stat.(j) with
    | Basic -> ()
    | At_lower when not (Float.is_finite lb.(j)) ->
        stat.(j) <- (if Float.is_finite ub.(j) then At_upper else Free_zero)
    | At_upper when not (Float.is_finite ub.(j)) ->
        stat.(j) <- (if Float.is_finite lb.(j) then At_lower else Free_zero)
    | Free_zero when lb.(j) > 0. || ub.(j) < 0. ->
        stat.(j) <- (if lb.(j) > 0. then At_lower else At_upper)
    | At_lower | At_upper | Free_zero -> ()
  done;
  let cost = ws.a_cost in
  Array.fill cost 0 ntot 0.;
  Array.blit p.obj 0 cost 0 n;
  Array.blit b.Basis.basis 0 ws.a_basis 0 m;
  let restored =
    match b.Basis.factor with
    | Some f when (not (Lu.factor_stale f)) && Lu.factor_dim f = m ->
        Some (Lu.of_factor f)
    | Some _ | None -> factor_basis ~m ws.colp ws.coli ws.colv ws.a_basis
  in
  match restored with
  | None -> None
  | Some kern ->
      let st = state_of_workspace ~pricing ~harris ws p ~kern in
      recompute_xb st;
      Some st

(* [Array.sort cmp] restricted to the prefix [a.(0 .. l-1)]: the same
   heap sort step for step, so ties land where [Array.sort] puts them,
   without its per-call array or exceptions.  [maxson] answers -1 where
   [Array.sort] raises [Bottom]. *)
let heap_sort cmp a l =
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if cmp a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
      if cmp a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
    end
    else if i31 + 1 < l && cmp a.(i31) a.(i31 + 1) < 0 then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let trickle l i e =
    let i = ref i and go = ref true in
    while !go do
      let j = maxson l !i in
      if j >= 0 && cmp a.(j) e > 0 then begin
        a.(!i) <- a.(j);
        i := j
      end
      else begin
        a.(!i) <- e;
        go := false
      end
    done
  in
  let bubble l i =
    let i = ref i and j = ref (maxson l i) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson l !i
    done;
    !i
  in
  let trickleup i e =
    let i = ref i and go = ref true in
    while !go do
      let father = (!i - 1) / 3 in
      if cmp a.(father) e < 0 then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          go := false
        end
      end
      else begin
        a.(!i) <- e;
        go := false
      end
    done
  in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

type dual_outcome = Dual_feasible | Dual_proven_infeasible | Dual_stalled

(* The dual pivot's update of the maintained reduced costs, run before
   the basis changes: d_j -= theta * alpha_rj over the nonbasic,
   non-fixed columns among the [nrow] that the pivot row lists in
   [st.touch], then d_q = 0 for the entering column and d = -theta for
   the leaving one, theta = d_q / alpha_rq.  Fixed columns never price
   in the dual loop, so their entries are left stale. *)
let update_dred st ~nrow ~q ~leaving =
  let theta = st.dred.(q) /. st.alpha.(q) in
  for t = 0 to nrow - 1 do
    let j = st.touch.(t) in
    if j <> q && st.stat.(j) <> Basic && st.lb.(j) < st.ub.(j) then
      st.dred.(j) <- st.dred.(j) -. (theta *. st.alpha.(j))
  done;
  st.dred.(q) <- 0.;
  st.dred.(leaving) <- -.theta

(* The dual loop's leaving row, by dual devex pricing: among the basis
   positions whose basic value violates its bounds by more than
   [feas_tol], the one maximizing v_i^2 / gamma_i over the row weights
   [st.rw] (v_i the infeasibility below or above).  Ties keep the
   lowest position.  -1 when every basic value is within [feas_tol] of
   its bounds. *)
let dual_leaving_row st ~feas_tol =
  let r = ref (-1) in
  (* Below any score, so a violated row is found even where its score
     underflows to 0 against a huge weight. *)
  let best = ref (-1.) in
  for i = 0 to st.m - 1 do
    let k = st.basis.(i) in
    let below = st.lb.(k) -. st.xb.(i) in
    let above = st.xb.(i) -. st.ub.(k) in
    let v = if below > above then below else above in
    if v > feas_tol then begin
      let score = v *. v /. st.rw.(i) in
      if score > !best then begin
        r := i;
        best := score
      end
    end
  done;
  !r

(* The dual pivot's basic-value step x_B -= t w (what [apply_step]
   does with sigma = 1), fused with the dual devex update of the row
   weights from the same pass over the entering column's FTRAN image
   w = B^-1 a_q: with k = gamma_r / w_r^2, every row with w_i <> 0 gets
   gamma_i = max(gamma_i, w_i^2 k), and the leaving row then gets
   max(k, 1).  Weights start at 1 and only grow, so they stay >= 1. *)
let dual_devex_step st w r t =
  let rw = st.rw and xb = st.xb in
  let ar = w.(r) in
  let k = rw.(r) /. (ar *. ar) in
  for i = 0 to st.m - 1 do
    let wi = w.(i) in
    if wi <> 0. then begin
      xb.(i) <- xb.(i) -. (wi *. t);
      let g = wi *. wi *. k in
      if g > rw.(i) then rw.(i) <- g
    end
  done;
  rw.(r) <- Float.max k 1.0

(* Bounded-variable dual simplex: starting from a (near) dual-feasible
   basis whose basic values may violate the new bounds, drive every
   basic variable back inside its bounds while keeping the reduced
   costs signed.  Each round picks a violated basic variable
   ({!dual_leaving_row}), prices the candidate entering columns against
   row r of B^{-1}, and pivots on the smallest dual ratio
   |d_j / alpha_j|.  Failure of the ratio test is a primal
   infeasibility certificate: the violated row proves no setting of the
   nonbasic variables can pull the basic one back inside its bounds.

   The leaving row maximizes v_i^2 / gamma_i, the dual devex rule:
   each call starts every row weight at 1 and updates them after each
   pivot from the entering column's FTRAN image ({!dual_devex_step}).
   The weights are indexed by basis position, which a refactorization
   keeps, so they stay valid across one.  The [pricing] setting selects
   only the primal entering rule.

   The reduced costs d_j are maintained from pivot to pivot in
   [st.dred].  The first pivot of a call is fresh: one paired BTRAN
   gives rho and the duals, and a walk over every column computes
   alpha_rj and d_j.  Every later pivot runs one BTRAN for rho, builds
   the pivot row over rho's nonzero rows ({!pivot_row}) and reads d_j
   from [st.dred]; each pivot then updates d along the pivot row
   ({!update_dred}).  A drift check compares the pivot row's alpha_rq
   with the FTRAN's; if they differ by more than 1e-9 (1 + |alpha|),
   the next pivot is fresh again.

   With [st.harris] set, the entering choice runs the bound-flipping
   (long-step) ratio test instead: the candidate breakpoints are walked
   in increasing dual-ratio order, and every boxed candidate whose flip
   keeps the remaining infeasibility slope positive has its bounds
   flipped rather than entering — the pivot lands on the first blocking
   breakpoint.  One FTRAN of the combined flipped columns updates the
   basic values for all flips at once.  Boxed 0-1 routing variables
   thus cross the box in O(1) bookkeeping instead of one pivot each. *)
let dual_simplex st ~max_pivots ~feas_tol ~deadline =
  Array.fill st.rw 0 st.m 1.0;
  let rec loop pivots ~fresh =
    if pivots >= max_pivots then Dual_stalled
    else if
      Float.is_finite deadline
      && pivots land 31 = 0
      && Clock.now () > deadline
    then Dual_stalled
    else begin
      let r = dual_leaving_row st ~feas_tol in
      if r < 0 then Dual_feasible
      else begin
        let k = st.basis.(r) in
        (* The row's own infeasibility, the slope the bound-flipping
           ratio test walks down. *)
        let below = st.lb.(k) -. st.xb.(r) in
        let high = not (below > feas_tol) in
        let viol = if high then st.xb.(r) -. st.ub.(k) else below in
        (* The pivot row: the [nrow] columns listed in [st.touch], with
           alpha_rj in [st.alpha]. *)
        let nrow =
          if fresh then begin
            binv_row_and_duals st r;
            let rho = st.wrho and y = st.wy in
            (* One walk over column j accumulates both alpha_rj (as
               [rho_dot]) and d_j (as [reduced_cost]), each in its own
               order, for every nonbasic, non-fixed column. *)
            let nw = ref 0 in
            for j = 0 to st.ntot - 1 do
              if st.stat.(j) <> Basic && st.lb.(j) < st.ub.(j) then begin
                let a = ref 0. and d = ref st.cost.(j) in
                for e = st.colp.(j) to st.colp.(j + 1) - 1 do
                  let i = Array.unsafe_get st.coli e and v = FA.unsafe_get st.colv e in
                  a := !a +. (rho.(i) *. v);
                  d := !d -. (y.(i) *. v)
                done;
                st.alpha.(j) <- !a;
                st.dred.(j) <- !d;
                st.touch.(!nw) <- j;
                incr nw
              end
            done;
            !nw
          end
          else begin
            binv_row st r;
            pivot_row st st.wrho
          end
        in
        (* s * alpha_j > 0 means raising x_j moves x_k toward the
           violated bound, so nonbasics at lower (free to rise) need
           s*alpha > 0 and nonbasics at upper need s*alpha < 0. *)
        let s = if high then 1.0 else -1.0 in
        let ncand = ref 0 in
        for t = 0 to nrow - 1 do
          let j = st.touch.(t) in
          if st.stat.(j) <> Basic && st.lb.(j) < st.ub.(j) then begin
            let a = st.alpha.(j) in
            let sa = s *. a in
            let eligible =
              match st.stat.(j) with
              | At_lower -> sa > pivot_tol
              | At_upper -> sa < -.pivot_tol
              | Free_zero -> Float.abs sa > pivot_tol
              | Basic -> false
            in
            if eligible then begin
              let c = !ncand in
              st.cnd.(c) <- j;
              st.cnd_a.(c) <- a;
              st.cnd_r.(c) <- Float.max 0. (st.dred.(j) /. sa);
              incr ncand
            end
          end
        done;
        let ncand = !ncand in
        if ncand = 0 then Dual_proven_infeasible
        else begin
          (* Entering choice.  Classic: smallest dual ratio, largest
             |alpha| tiebreak.  Bound-flipping: walk breakpoints in ratio
             order, flipping boxed candidates while the remaining slope
             stays positive. *)
          let enter = ref (-1) in
          let flips = ref [] in
          if not st.harris then begin
            let best_ratio = ref infinity and enter_alpha = ref 0. in
            for c = 0 to ncand - 1 do
              let ratio = st.cnd_r.(c) and a = st.cnd_a.(c) in
              if
                ratio < !best_ratio -. 1e-12
                || (ratio < !best_ratio +. 1e-12 && Float.abs a > Float.abs !enter_alpha)
              then begin
                enter := st.cnd.(c);
                best_ratio := ratio;
                enter_alpha := a
              end
            done
          end
          else begin
            let ord = st.cnd_o in
            for c = 0 to ncand - 1 do
              ord.(c) <- c
            done;
            heap_sort
              (fun x y ->
                let c = Float.compare st.cnd_r.(x) st.cnd_r.(y) in
                if c <> 0 then c
                else Float.compare (Float.abs st.cnd_a.(y)) (Float.abs st.cnd_a.(x)))
              ord ncand;
            let slope = ref viol in
            let t = ref 0 in
            while !enter < 0 && !t < ncand do
              let c = ord.(!t) in
              let j = st.cnd.(c) in
              let span = st.ub.(j) -. st.lb.(j) in
              let drop = Float.abs st.cnd_a.(c) *. span in
              if Float.is_finite span && !slope -. drop > 1e-9 && !t < ncand - 1
              then begin
                (* Flipping j keeps the row infeasible: pass the
                   breakpoint.  (Never flip the last candidate — a pivot
                   must land somewhere.) *)
                slope := !slope -. drop;
                flips := c :: !flips;
                incr t
              end
              else enter := j
            done
          end;
          if !enter < 0 then Dual_proven_infeasible
          else begin
            (* Commit the bound flips: one combined column, one FTRAN. *)
            (match !flips with
            | [] -> ()
            | fl ->
                Array.fill st.wflip 0 st.m 0.;
                List.iter
                  (fun c ->
                    let j = st.cnd.(c) in
                    let span = st.ub.(j) -. st.lb.(j) in
                    let delta =
                      match st.stat.(j) with
                      | At_lower ->
                          st.stat.(j) <- At_upper;
                          span
                      | At_upper ->
                          st.stat.(j) <- At_lower;
                          -.span
                      | Free_zero | Basic -> 0.
                    in
                    if delta <> 0. then
                      for e = st.colp.(j) to st.colp.(j + 1) - 1 do
                        let i = st.coli.(e) in
                        st.wflip.(i) <- st.wflip.(i) +. (FA.get st.colv e *. delta)
                      done)
                  fl;
                Lu.ftran st.kern st.wflip;
                for i = 0 to st.m - 1 do
                  st.xb.(i) <- st.xb.(i) -. st.wflip.(i)
                done);
            let j = !enter in
            ftran_col st j;
            let w = st.ww in
            let alpha = w.(r) in
            if Float.abs alpha < pivot_tol then Dual_stalled
            else begin
              let bound = if high then st.ub.(k) else st.lb.(k) in
              let delta = (st.xb.(r) -. bound) /. alpha in
              (* Drift check: the pivot row and the FTRAN must agree on
                 the pivot element, or the next pivot recomputes the
                 duals. *)
              let arq = st.alpha.(j) in
              let drift = Float.abs (arq -. alpha) > 1e-9 *. (1. +. Float.abs alpha) in
              update_dred st ~nrow ~q:j ~leaving:k;
              st.niter <- st.niter + 1;
              dual_devex_step st w r delta;
              pivot st j 1.0 w r delta ~to_upper:high;
              loop (pivots + 1) ~fresh:drift
            end
          end
        end
      end
    end
  in
  loop 0 ~fresh:true

(* Run simplex iterations under the current [st.cost] until no entering
   column is found.  Returns [Ok ()] at phase optimality.

   Devex mode maintains the reduced costs incrementally (the pivot-row
   pass in {!devex_update} pays for both the weight and the cost
   update), refreshing them from the duals at phase entry, every
   [dred_period] iterations, after a Bland excursion, and — always —
   before optimality is declared, so a drifted estimate can never
   terminate the phase early.  Costs that are already fresh (refreshed
   with no pivot or refactorization since, e.g. on a warm start that
   is optimal on entry) are not refreshed again: a second BTRAN and
   column sweep would reproduce them bit for bit.  The Bland fallback
   itself runs the classic full lowest-index scan on fresh duals,
   exactly as in Dantzig mode, preserving the termination guarantee. *)
let optimize st ~max_iterations ~dual_tol ~deadline =
  let dred_period = 512 in
  let devex = st.pricing = Devex in
  if devex then begin
    refresh_dred st;
    reset_devex st
  end;
  let rec loop () =
    if st.niter >= max_iterations then Error Status.Lp_iteration_limit
    else if
      Float.is_finite deadline
      && st.niter land 63 = 0
      && Clock.now () > deadline
    then Error Status.Lp_iteration_limit
    else begin
      if devex && (not st.bland) && not st.d_valid then begin
        refresh_dred st;
        reset_devex st
      end;
      let cand =
        if (not devex) || st.bland then price st ~dual_tol
        else
          match devex_price st ~dual_tol with
          | Some _ as c -> c
          | None when st.d_fresh -> None
          | None ->
              (* Confirm optimality on fresh reduced costs. *)
              refresh_dred st;
              devex_price st ~dual_tol
      in
      match cand with
      | None -> Ok ()
      | Some (j, d) -> (
          let sigma =
            match st.stat.(j) with
            | At_lower -> 1.0
            | At_upper -> -1.0
            | Free_zero -> if d < 0. then 1.0 else -1.0
            | Basic -> assert false
          in
          st.niter <- st.niter + 1;
          if devex && (not st.bland) && st.niter mod dred_period = 0 then refresh_dred st;
          ftran_col st j;
          let w = st.ww in
          match ratio_test st j sigma w with
          | Unbounded -> Error Status.Lp_unbounded
          | Bound_flip t ->
              apply_step st sigma w t;
              st.stat.(j) <- (match st.stat.(j) with At_lower -> At_upper | _ -> At_lower);
              st.degen_count <- 0;
              st.bland <- false;
              (* A flip keeps the basis, hence duals and reduced costs,
                 unchanged. *)
              loop ()
          | Leave { row; t; to_upper } ->
              if t <= 1e-10 then begin
                st.degen_count <- st.degen_count + 1;
                if st.degen_count > 200 then st.bland <- true
              end
              else begin
                st.degen_count <- 0;
                st.bland <- false
              end;
              if devex && not st.bland then devex_update st ~q:j ~r:row ~alpha_rq:w.(row)
              else st.d_valid <- false;
              apply_step st sigma w t;
              pivot st j sigma w row t ~to_upper;
              loop ())
    end
  in
  loop ()

let extract_primal st =
  let n = st.p.ncols in
  let x = Array.make n 0. in
  for j = 0 to n - 1 do
    if st.stat.(j) <> Basic then x.(j) <- nb_value st j
  done;
  for i = 0 to st.m - 1 do
    let k = st.basis.(i) in
    if k < n then x.(k) <- st.xb.(i)
  done;
  x

let true_objective st x =
  let acc = ref st.p.obj_const in
  for j = 0 to st.p.ncols - 1 do
    acc := !acc +. (st.p.obj.(j) *. x.(j))
  done;
  !acc

let cold_solve ~pricing ~harris ~ws ~max_iterations ~feas_tol ~deadline p ~lb ~ub =
  let m = Array.length p.rows in
  let st = init_state ~pricing ~harris ~ws p ~lb ~ub in
  (* Phase 1: minimize total artificial value (cost set by init). *)
  let phase1_needed = ref false in
  for i = 0 to m - 1 do
    if st.basis.(i) >= p.ncols + m then phase1_needed := true
  done;
  let phase1 =
    if !phase1_needed then optimize st ~max_iterations ~dual_tol:1e-9 ~deadline
    else Ok ()
  in
  match phase1 with
  | Error s ->
      { status = s; objective = infinity; primal = extract_primal st;
        iterations = st.niter; basis = None; warm = Cold }
  | Ok () ->
      let infeas = current_objective st in
      if !phase1_needed && infeas > feas_tol *. 10. then
        { status = Status.Lp_infeasible; objective = infinity;
          primal = extract_primal st; iterations = st.niter; basis = None; warm = Cold }
      else begin
        (* Seal artificials and install the phase-2 cost. *)
        for i = 0 to m - 1 do
          let art = p.ncols + m + i in
          st.ub.(art) <- 0.;
          st.lb.(art) <- 0.;
          st.cost.(art) <- 0.
        done;
        Array.blit p.obj 0 st.cost 0 p.ncols;
        st.bland <- false;
        st.degen_count <- 0;
        match optimize st ~max_iterations ~dual_tol:1e-7 ~deadline with
        | Error s ->
            let x = extract_primal st in
            let objective = if s = Status.Lp_iteration_limit then true_objective st x else neg_infinity in
            { status = s; objective; primal = x; iterations = st.niter; basis = None; warm = Cold }
        | Ok () ->
            (* Only hand out a basis that re-verified under a fresh
               factorization: warm restarts, cut separation and
               reduced-cost fixing all trust the snapshot's factor
               blindly, and a near-singular terminal basis would feed
               them garbage.  Losing the snapshot merely costs the
               children a cold solve. *)
            let fresh = refactorize st in
            let x = extract_primal st in
            { status = Status.Lp_optimal; objective = true_objective st x;
              primal = x; iterations = st.niter;
              basis = (if fresh then Some (snapshot st) else None); warm = Cold }
      end

let basic_within_bounds st tol =
  let ok = ref true in
  for i = 0 to st.m - 1 do
    let k = st.basis.(i) in
    if st.xb.(i) < st.lb.(k) -. tol || st.xb.(i) > st.ub.(k) +. tol then ok := false
  done;
  !ok

(* Warm-start attempt: restore the parent basis, repair primal
   feasibility with dual pivots, then finish with (usually zero) primal
   iterations.  [None] means the caller must fall back to a cold solve:
   the basis was stale or singular, or dual pivoting stalled. *)
let try_warm ~pricing ~harris ~ws ~max_iterations ~feas_tol ~deadline p ~lb ~ub b =
  let m = Array.length p.rows in
  if not (Basis.compatible b ~ncols:p.ncols ~nrows:m && Basis.well_formed b) then None
  else
    match warm_state ~pricing ~harris ~ws p ~lb ~ub b with
    | None -> None
    | Some st -> (
        match dual_simplex st ~max_pivots:(100 + (2 * m)) ~feas_tol ~deadline with
        | Dual_stalled -> None
        | Dual_proven_infeasible ->
            Some
              { status = Status.Lp_infeasible; objective = infinity;
                primal = extract_primal st; iterations = st.niter;
                basis = None; warm = Warm }
        | Dual_feasible -> (
            match optimize st ~max_iterations ~dual_tol:1e-7 ~deadline with
            | Error Status.Lp_unbounded ->
                Some
                  { status = Status.Lp_unbounded; objective = neg_infinity;
                    primal = extract_primal st; iterations = st.niter;
                    basis = None; warm = Warm }
            | Error s ->
                let x = extract_primal st in
                Some
                  { status = s; objective = true_objective st x; primal = x;
                    iterations = st.niter; basis = None; warm = Warm }
            | Ok () ->
                (* Final hygiene: a warm basis whose basic values drift
                   out of primal feasibility is not trusted.  Drift is
                   bounded by the refactorization rule of
                   [kernel_update], so no unconditional O(m³)
                   refactorization is needed here. *)
                if not (basic_within_bounds st (feas_tol *. 100.)) then None
                else begin
                  let x = extract_primal st in
                  Some
                    { status = Status.Lp_optimal; objective = true_objective st x;
                      primal = x; iterations = st.niter;
                      basis = Some (snapshot st); warm = Warm }
                end))

let solve ?basis ?max_iterations ?(feas_tol = 1e-7) ?(deadline = infinity)
    ?(pricing = Devex) ?(harris = true) ?ws p ~lb ~ub =
  let m = Array.length p.rows in
  let ws = match ws with Some w -> w | None -> create_workspace () in
  (* Reject inverted working bounds up-front (branch & bound can create
     them); an empty box is infeasible. *)
  let inverted = ref false in
  for j = 0 to p.ncols - 1 do
    if lb.(j) > ub.(j) +. 1e-12 then inverted := true
  done;
  if !inverted then
    { status = Status.Lp_infeasible; objective = infinity;
      primal = Array.make p.ncols 0.; iterations = 0; basis = None; warm = Cold }
  else begin
    let max_iterations =
      match max_iterations with
      | Some k -> k
      | None -> 50_000 + (50 * (m + p.ncols))
    in
    match basis with
    | None -> cold_solve ~pricing ~harris ~ws ~max_iterations ~feas_tol ~deadline p ~lb ~ub
    | Some b -> (
        match try_warm ~pricing ~harris ~ws ~max_iterations ~feas_tol ~deadline p ~lb ~ub b with
        | Some r -> r
        | None ->
            { (cold_solve ~pricing ~harris ~ws ~max_iterations ~feas_tol ~deadline p ~lb ~ub) with
              warm = Warm_fallback })
  end

(* Append rows to a problem snapshot (used by the cut loop).  The
   existing arrays are shared structurally; only the row-indexed arrays
   are rebuilt. *)
let add_rows p extra =
  match extra with
  | [] -> p
  | _ ->
      let rows = Array.of_list (List.map (fun (r, _, _) -> r) extra) in
      let senses = Array.of_list (List.map (fun (_, s, _) -> s) extra) in
      let rhs = Array.of_list (List.map (fun (_, _, b) -> b) extra) in
      {
        p with
        rows = Array.append p.rows rows;
        senses = Array.append p.senses senses;
        rhs = Array.append p.rhs rhs;
      }

type tableau = {
  t_ncols : int;
  t_nrows : int;
  t_basic : int array;
  t_xb : float array;
  t_stat : vstat array;
  t_lb : float array;
  t_ub : float array;
  t_row : int -> (int * float) array;
}

(* Simplex tableau access for cut separation: rebuild the solver state
   from an optimal basis (exactly as a warm start would) and expose the
   basic values plus on-demand tableau rows alpha = B^{-1} A restricted
   to the nonbasic, non-fixed columns.  Fixed columns (sealed
   artificials, presolve-fixed structurals) contribute nothing to a cut
   because their shifted value is identically zero.

   Always runs on a private workspace: the returned [t_row] closure
   keeps the solver state alive, so it must not share buffers with
   subsequent solves on a caller-owned workspace. *)
let tableau p ~lb ~ub b =
  if not (Basis.compatible b ~ncols:p.ncols ~nrows:(Array.length p.rows) && Basis.well_formed b)
  then None
  else
    match
      warm_state ~pricing:Dantzig ~harris:false ~ws:(create_workspace ()) p ~lb ~ub b
    with
    | None -> None
    | Some st when not (Lu.updates st.kern = 0 || refactorize st) ->
        (* Cut coefficients are linear in B^{-1}; a factor that cannot
           be re-verified by factorization would yield invalid cuts. *)
        None
    | Some st ->
        (* Built by {!pivot_row} over the rows where rho is nonzero, so
           each entry equals [rho_dot]'s up to the sign of a zero, which
           the magnitude filter drops. *)
        let row i =
          binv_row st i;
          let nrow = pivot_row st st.wrho in
          heap_sort Int.compare st.touch nrow;
          let out = ref [] in
          for t = nrow - 1 downto 0 do
            let j = st.touch.(t) in
            if st.stat.(j) <> Basic && st.lb.(j) < st.ub.(j) then begin
              let a = st.alpha.(j) in
              if Float.abs a > 1e-9 then out := (j, a) :: !out
            end
          done;
          Array.of_list !out
        in
        Some
          {
            t_ncols = st.p.ncols;
            t_nrows = st.m;
            t_basic = Array.copy st.basis;
            t_xb = Array.copy st.xb;
            t_stat = Array.copy st.stat;
            t_lb = Array.copy st.lb;
            t_ub = Array.copy st.ub;
            t_row = row;
          }

(* Phase-2 reduced costs of the structural columns under an optimal
   basis: d = c - c_B B^{-1} A, with y = B^{-T} c_B obtained by one
   sparse BTRAN against the snapshot's factor.  A sealed artificial in
   the basis carries zero cost, so its (unknown) column sign cannot
   perturb y.  Used for reduced-cost fixing in branch & bound once an
   incumbent exists. *)
let reduced_costs p (b : Basis.t) =
  let m = Array.length p.rows in
  let n = p.ncols in
  if not (Basis.compatible b ~ncols:n ~nrows:m) then None
  else begin
    let lu =
      match b.Basis.factor with
      | Some f -> Some (Lu.of_factor f)
      | None ->
          let ws = create_workspace () in
          build_csc ws p m;
          factor_basis ~m ws.colp ws.coli ws.colv b.Basis.basis
    in
    match lu with
    | None -> None
    | Some lu ->
        let y = Array.make m 0. in
        for i = 0 to m - 1 do
          let k = b.Basis.basis.(i) in
          if k < n then y.(i) <- p.obj.(k)
        done;
        Lu.btran lu y;
        let d = Array.copy p.obj in
        Array.iteri
          (fun i row ->
            if y.(i) <> 0. then
              Array.iter (fun (j, a) -> d.(j) <- d.(j) -. (y.(i) *. a)) row)
          p.rows;
        Some d
  end

let solve_model ?max_iterations m =
  let p = of_model m in
  let n = p.ncols in
  let lb = Array.init n (Model.var_lb m) and ub = Array.init n (Model.var_ub m) in
  let r = solve ?max_iterations p ~lb ~ub in
  match Model.direction m with
  | Model.Minimize -> r
  | Model.Maximize ->
      let objective =
        match r.status with
        | Status.Lp_unbounded -> infinity
        | Status.Lp_infeasible -> neg_infinity
        | Status.Lp_optimal | Status.Lp_iteration_limit -> -.r.objective
      in
      { r with objective }

module Probe = struct
  type t = state

  let warm p ~lb ~ub b =
    if not (Basis.compatible b ~ncols:p.ncols ~nrows:(Array.length p.rows) && Basis.well_formed b)
    then None
    else warm_state ~pricing:Devex ~harris:true ~ws:(create_workspace ()) p ~lb ~ub b

  let updates st = Lu.updates st.kern

  let dual st ~max_pivots =
    let before = st.niter in
    ignore (dual_simplex st ~max_pivots ~feas_tol:1e-7 ~deadline:infinity);
    st.niter - before

  let binv_row st r =
    binv_row st r;
    Array.copy st.wrho

  let pivot_row st rho =
    let nrow = pivot_row st rho in
    Array.init nrow (fun t ->
        let j = st.touch.(t) in
        (j, st.alpha.(j)))

  let rho_dot st rho j = rho_dot st rho j
  let weights st = Array.sub st.rw 0 st.m

  let dual_row st =
    let r = dual_leaving_row st ~feas_tol:1e-7 in
    if r < 0 then None else Some r

  let entering_column st = Array.sub st.ww 0 st.m

  let reduced_costs st =
    let kept = Array.copy st.dred in
    refresh_dred st;
    let out = ref [] in
    for j = st.ntot - 1 downto 0 do
      if st.stat.(j) <> Basic && st.lb.(j) < st.ub.(j) then
        out := (j, kept.(j), st.dred.(j)) :: !out
    done;
    Array.of_list !out
end
