(* Sparse LU of a basis matrix, Forrest–Tomlin updates, sparse
   triangular solves.  See lu.mli for the interface contract.

   Everything lives in two index spaces: "row" (constraint rows of the
   problem, the RHS space) and "position" (which basis slot a column
   occupies, the solution space of FTRAN).  The factorization works in a
   third, private "step" space — step [k] is the k-th elimination pivot
   — with [prow]/[pcol] mapping steps back to rows/positions.  L is
   stored as per-step multiplier columns (targets are later steps), U as
   per-step rows (again later steps), both over step indices so the
   triangular solves are straight scatter/gather loops.

   Storage is flat: step [k]'s L column is the run [lp.(k), lp.(k+1))
   of the parallel [li]/[lv] buffers, and its U row the run
   [up.(k), up.(k+1)) of [ui]/[uv].  A factor entry costs 2 words and a
   step 2 offset words, with no per-step array headers.  Entry order is
   fixed by the elimination (see [factorize_csc]) and every solve
   depends on it bit for bit — the [extend_rows] bit-identity guarantee
   does too.

   A basis change never touches this core, which snapshots and handles
   share.  Forrest–Tomlin (Math. Prog. 2, 1972) replaces U's column for
   the leaving position by the entering column's spike (L⁻¹a, pushed
   through the earlier row etas), moves it and its row last in U's
   order, and eliminates that row's entries in the columns after it
   with one row eta R: B = P_r⁻¹ L R₁⁻¹…R_k⁻¹ U_k P_c⁻¹.  Each update is
   one immutable [upd] appended to a per-handle log: a snapshot copies
   the log's pointers, so two handles reopened from it append to their
   own logs and never see each other's updates.  The solves work over
   "slots" (see below): FTRAN runs L, the row etas oldest first, then
   U's update columns newest first and the core's rows; BTRAN runs the
   transposes in the opposite order. *)

module FA = Float.Array

type core = {
  cm : int;
  prow : int array;  (* step -> row *)
  pcol : int array;  (* step -> position *)
  pstep : int array;  (* position -> step *)
  lp : int array;  (* step -> start of its L column in [li]/[lv]; length cm+1 *)
  li : int array;  (* later-step targets of the L columns *)
  lv : floatarray;  (* multipliers, parallel to [li] *)
  up : int array;  (* step -> start of its U row in [ui]/[uv]; length cm+1 *)
  ui : int array;  (* later-step targets of the U rows *)
  uv : floatarray;  (* values, parallel to [ui] *)
  udiag : floatarray;
  cnnz : int;
}

(* One Forrest–Tomlin update.  Update [j] of a handle over a core of
   dimension [m] creates slot [m + j]: a new last column of U whose
   diagonal is [u_d] and whose other entries ([u_si]/[u_sv], by slot)
   are the spike, on the row of the slot [u_old] it retires once the
   row eta [u_ri]/[u_rv] has eliminated that row's entries in the
   columns ordered after it.  Immutable once logged. *)
type upd = {
  u_old : int;  (* the slot retired *)
  u_pos : int;  (* basis position of the new column *)
  u_d : float;
  u_si : int array;
  u_sv : floatarray;
  u_ri : int array;
  u_rv : floatarray;
}

type factor = { f_core : core; f_log : upd array; f_unz : int }

type t = {
  m : int;
  core : core;
  mutable log : upd array;  (* buffer; [0, nup) live *)
  mutable nup : int;
  mutable unz : int;  (* entries across the live log *)
  mutable dead : Bytes.t;  (* slot -> '\001' once retired; length >= m + nup *)
  (* The spike kept by the last [ftran_spike], for the next [replace]. *)
  mutable sp_i : int array;
  mutable sp_v : float array;
  mutable sp_n : int;
  mutable sp_at : int;  (* [nup] when it was kept; -1 for none *)
}

let dim t = t.m

let nnz t = t.core.cnnz + t.unz

let factor_dim f = f.f_core.cm

let factor_updates f = Array.length f.f_log

(* The refactorization rule: the log may hold at most as many entries
   as the factorization itself, and at most [max_updates] updates (each
   leaves a retired slot that every solve steps over). *)
let max_updates = 100

let stale_after ~cnnz ~nup ~unz = nup >= max_updates || unz > cnnz

let stale t = stale_after ~cnnz:t.core.cnnz ~nup:t.nup ~unz:t.unz

let factor_stale f = stale_after ~cnnz:f.f_core.cnnz ~nup:(Array.length f.f_log) ~unz:f.f_unz

let dummy_upd =
  { u_old = 0; u_pos = 0; u_d = 1.; u_si = [||]; u_sv = FA.create 0; u_ri = [||];
    u_rv = FA.create 0 }

let handle core =
  { m = core.cm; core; log = [||]; nup = 0; unz = 0; dead = Bytes.make core.cm '\000';
    sp_i = [||]; sp_v = [||]; sp_n = 0; sp_at = -1 }

(* ------------------------------------------------------------------ *)
(* Per-domain scratch                                                  *)
(* ------------------------------------------------------------------ *)

(* Every working array of a factorization and of a triangular solve.
   One scratch lives in each domain's local storage and is reused by
   every call on that domain, so a factorization allocates only the
   factor it returns and a handle carries no scratch of its own.  The
   m-sized arrays grow to the largest basis seen; the pools grow to the
   largest high-water mark, and never shrink.

   [busy] guards against a second user on the same domain: systhreads
   share their domain's storage and may be preempted mid-solve.  A call
   that finds the scratch taken works on a private one instead. *)
type scratch = {
  busy : bool Atomic.t;
  mutable ws : float array;  (* step-space vector of a solve *)
  mutable ws2 : float array;  (* second step-space vector of a paired BTRAN *)
  (* Factorization arrays, all of length >= the basis dimension. *)
  mutable acc : float array;  (* dense accumulator of a column rewrite *)
  mutable px : float array;  (* conditioning probe: B⁻¹·1 *)
  mutable pz : float array;  (* conditioning probe: B·(B⁻¹·1) *)
  mutable amark : int array;  (* row -> stamp of the column rewrite *)
  mutable seen : int array;  (* column -> last step that visited it *)
  mutable rcount : int array;  (* row -> active entries *)
  mutable ccount : int array;  (* column -> active entries *)
  mutable cstart : int array;  (* column -> start of its run in [pi]/[pv] *)
  mutable heap : int array;  (* zero-score candidate columns *)
  mutable rhead : int array;  (* row -> first node of its column list *)
  mutable rstep : int array;  (* row -> step *)
  mutable posstep : int array;  (* position -> step *)
  mutable bp : int array;  (* assembled column starts, length >= m+1 *)
  mutable coldone : Bytes.t;
  mutable inheap : Bytes.t;
  (* Growable pools. *)
  mutable bi : int array;  (* the assembled basis matrix B *)
  mutable bv : float array;
  mutable pi : int array;  (* active columns, one run each *)
  mutable pv : float array;
  mutable pi2 : int array;  (* compaction target, swapped with [pi]/[pv] *)
  mutable pv2 : float array;
  mutable rn_col : int array;  (* row-list nodes: column *)
  mutable rn_next : int array;  (* row-list nodes: next node, -1 ends *)
  mutable lr : int array;  (* L entries by row, in step order *)
  mutable lx : float array;
  mutable uc : int array;  (* U entries by position, in visit order *)
  mutable ux : float array;
}

let new_scratch () =
  { busy = Atomic.make false; ws = [||]; ws2 = [||]; acc = [||]; px = [||]; pz = [||];
    amark = [||]; seen = [||]; rcount = [||]; ccount = [||]; cstart = [||];
    heap = [||]; rhead = [||]; rstep = [||]; posstep = [||]; bp = [||];
    coldone = Bytes.empty; inheap = Bytes.empty; bi = [||]; bv = [||];
    pi = [||]; pv = [||]; pi2 = [||]; pv2 = [||]; rn_col = [||]; rn_next = [||];
    lr = [||]; lx = [||]; uc = [||]; ux = [||] }

let scratch_key = Domain.DLS.new_key new_scratch

let acquire () =
  let s = Domain.DLS.get scratch_key in
  if Atomic.compare_and_set s.busy false true then s else new_scratch ()

let release s = Atomic.set s.busy false

(* Capacity helpers: return [a] when it holds [n], else a larger array
   carrying over the first [keep] elements. *)
let cap_i a n keep =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 keep;
    b
  end

let cap_f a n keep =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0. in
    Array.blit a 0 b 0 keep;
    b
  end

(* Slot vectors hold [m + nup] entries; room for [max_updates] more
   keeps a growing log from reallocating them at every update. *)
let ensure_solve s n = if Array.length s.ws < n then s.ws <- Array.make (n + max_updates) 0.

let ensure_solve2 s n =
  ensure_solve s n;
  if Array.length s.ws2 < n then s.ws2 <- Array.make (n + max_updates) 0.

let ensure_factorize s m =
  ensure_solve s m;
  if Array.length s.acc < m then begin
    s.acc <- Array.make m 0.;
    s.px <- Array.make m 0.;
    s.pz <- Array.make m 0.;
    s.amark <- Array.make m 0;
    s.seen <- Array.make m 0;
    s.rcount <- Array.make m 0;
    s.ccount <- Array.make m 0;
    s.cstart <- Array.make m 0;
    s.heap <- Array.make m 0;
    s.rhead <- Array.make m 0;
    s.rstep <- Array.make m 0;
    s.posstep <- Array.make m 0;
    s.bp <- Array.make (m + 1) 0;
    s.coldone <- Bytes.make m '\000';
    s.inheap <- Bytes.make m '\000'
  end

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type stats = {
  s_ftran_calls : int;
  s_ftran_nnz : int;
  s_btran_calls : int;
  s_btran_nnz : int;
  s_factorizations : int;
}

(* Off by default: the nonzero census is an extra O(m) scan per solve,
   so only perfbench turns it on.  Atomics because the tree-search
   workers share nothing but these counters. *)
let counting = Atomic.make false
let c_ftran = Atomic.make 0
let c_ftran_nnz = Atomic.make 0
let c_btran = Atomic.make 0
let c_btran_nnz = Atomic.make 0
let c_factor = Atomic.make 0

let set_stats_enabled b = Atomic.set counting b

let stats () =
  { s_ftran_calls = Atomic.get c_ftran;
    s_ftran_nnz = Atomic.get c_ftran_nnz;
    s_btran_calls = Atomic.get c_btran;
    s_btran_nnz = Atomic.get c_btran_nnz;
    s_factorizations = Atomic.get c_factor }

let reset_stats () =
  Atomic.set c_ftran 0;
  Atomic.set c_ftran_nnz 0;
  Atomic.set c_btran 0;
  Atomic.set c_btran_nnz 0;
  Atomic.set c_factor 0

let count_solve calls nnz x m =
  if Atomic.get counting then begin
    let k = ref 0 in
    for i = 0 to m - 1 do
      if x.(i) <> 0. then incr k
    done;
    ignore (Atomic.fetch_and_add calls 1);
    ignore (Atomic.fetch_and_add nnz !k)
  end

(* ------------------------------------------------------------------ *)
(* Solves                                                              *)
(* ------------------------------------------------------------------ *)

(* A handle's solves work over "slots": slot [k < m] is step [k] of the
   core, slot [m + j] the column update [j] appended.  U's column order
   is the live core steps, then the live updates oldest first.  A slot
   retires when a later update replaces its column.  Its core U row and
   its stale entries elsewhere (core U rows and spikes still name it)
   stay in place: a solve skips retired slots and zeroes their values
   wherever a live slot may read them.  [y] is slot-space scratch of
   length >= m + nup. *)

let clear_retired t y =
  for j = 0 to t.nup - 1 do
    y.((Array.unsafe_get t.log j).u_old) <- 0.
  done

(* Append one entry to the kept spike; the buffers grow to the largest
   spike seen. *)
let keep_entry t s v =
  let k = t.sp_n in
  if k >= Array.length t.sp_i then begin
    let cap = max 16 (2 * k) in
    let si = Array.make cap 0 and sv = Array.make cap 0. in
    Array.blit t.sp_i 0 si 0 k;
    Array.blit t.sp_v 0 sv 0 k;
    t.sp_i <- si;
    t.sp_v <- sv
  end;
  t.sp_i.(k) <- s;
  t.sp_v.(k) <- v;
  t.sp_n <- k + 1

let ftran_with ~keep t y x =
  let c = t.core in
  let m = t.m and n = t.nup and dead = t.dead in
  let lp = c.lp and li = c.li and lv = c.lv in
  let up = c.up and ui = c.ui and uv = c.uv in
  for k = 0 to m - 1 do
    y.(k) <- x.(c.prow.(k))
  done;
  (* L y' = y, forward.  Step [k] is final when the pass reaches it, so
     a kept spike takes its core entries here (a retired slot's value
     leaves with its row eta below). *)
  if keep then begin
    t.sp_n <- 0;
    for k = 0 to m - 1 do
      let yk = y.(k) in
      if yk <> 0. then begin
        if Bytes.unsafe_get dead k = '\000' then keep_entry t k yk;
        for e = lp.(k) to lp.(k + 1) - 1 do
          let j = Array.unsafe_get li e in
          y.(j) <- y.(j) -. (FA.unsafe_get lv e *. yk)
        done
      end
    done
  end
  else
    for k = 0 to m - 1 do
      let yk = y.(k) in
      if yk <> 0. then
        for e = lp.(k) to lp.(k + 1) - 1 do
          let j = Array.unsafe_get li e in
          y.(j) <- y.(j) -. (FA.unsafe_get lv e *. yk)
        done
    done;
  (* Row etas, oldest first: the retired slot's row, less the multiples
     of later rows that its eta names, becomes the new slot's row. *)
  for j = 0 to n - 1 do
    let u = Array.unsafe_get t.log j in
    let ri = u.u_ri and rv = u.u_rv in
    let acc = ref y.(u.u_old) in
    for e = 0 to Array.length ri - 1 do
      acc := !acc -. (FA.unsafe_get rv e *. y.(Array.unsafe_get ri e))
    done;
    y.(m + j) <- !acc;
    y.(u.u_old) <- 0.
  done;
  if keep then begin
    for j = 0 to n - 1 do
      let v = y.(m + j) in
      if v <> 0. && Bytes.unsafe_get dead (m + j) = '\000' then keep_entry t (m + j) v
    done;
    t.sp_at <- n
  end;
  (* U z = y', backward: the update columns newest first (a column
     scatter), then the core (a row gather; later steps already
     solved). *)
  if n > 0 then begin
    for j = n - 1 downto 0 do
      if Bytes.unsafe_get dead (m + j) = '\000' then begin
        let u = Array.unsafe_get t.log j in
        let z = y.(m + j) /. u.u_d in
        y.(m + j) <- z;
        if z <> 0. then begin
          let si = u.u_si and sv = u.u_sv in
          for e = 0 to Array.length si - 1 do
            let s = Array.unsafe_get si e in
            y.(s) <- y.(s) -. (FA.unsafe_get sv e *. z)
          done
        end
      end
    done;
    clear_retired t y
  end;
  for k = m - 1 downto 0 do
    if Bytes.unsafe_get dead k = '\000' then begin
      let acc = ref y.(k) in
      for e = up.(k) to up.(k + 1) - 1 do
        acc := !acc -. (FA.unsafe_get uv e *. y.(Array.unsafe_get ui e))
      done;
      y.(k) <- !acc /. FA.unsafe_get c.udiag k
    end
  done;
  (* Out by position: a retired slot writes its zero before the newest
     update at its position writes the value. *)
  for k = 0 to m - 1 do
    x.(c.pcol.(k)) <- y.(k)
  done;
  for j = 0 to n - 1 do
    x.((Array.unsafe_get t.log j).u_pos) <- y.(m + j)
  done;
  count_solve c_ftran c_ftran_nnz x m

(* Position-indexed [x] into the slots: each position to its live slot,
   retired slots to zero. *)
let load_slots t y x =
  let m = t.m in
  for k = 0 to m - 1 do
    y.(k) <- x.(t.core.pcol.(k))
  done;
  for j = 0 to t.nup - 1 do
    y.(m + j) <- x.((Array.unsafe_get t.log j).u_pos)
  done;
  clear_retired t y

(* Uᵀ z = y over the slots — the core forward (scatter: row k of U hits
   later steps), then the update columns oldest first (gather) — and
   the row-eta transposes newest first, which hand each new slot's
   value back to the slot it retired and to the rows its eta names.
   On return the core slots hold what the Lᵀ pass takes. *)
let solve_ut t y =
  let c = t.core in
  let m = t.m and n = t.nup and dead = t.dead in
  let up = c.up and ui = c.ui and uv = c.uv in
  for k = 0 to m - 1 do
    if Bytes.unsafe_get dead k = '\000' then begin
      let zk = y.(k) /. FA.unsafe_get c.udiag k in
      y.(k) <- zk;
      if zk <> 0. then
        for e = up.(k) to up.(k + 1) - 1 do
          let j = Array.unsafe_get ui e in
          y.(j) <- y.(j) -. (FA.unsafe_get uv e *. zk)
        done
    end
  done;
  if n > 0 then begin
    clear_retired t y;
    for j = 0 to n - 1 do
      if Bytes.unsafe_get dead (m + j) = '\000' then begin
        let u = Array.unsafe_get t.log j in
        let si = u.u_si and sv = u.u_sv in
        let acc = ref y.(m + j) in
        for e = 0 to Array.length si - 1 do
          acc := !acc -. (FA.unsafe_get sv e *. y.(Array.unsafe_get si e))
        done;
        y.(m + j) <- !acc /. u.u_d
      end
    done;
    for j = n - 1 downto 0 do
      let u = Array.unsafe_get t.log j in
      let v = y.(m + j) in
      y.(u.u_old) <- v;
      if v <> 0. then begin
        let ri = u.u_ri and rv = u.u_rv in
        for e = 0 to Array.length ri - 1 do
          let s = Array.unsafe_get ri e in
          y.(s) <- y.(s) -. (FA.unsafe_get rv e *. v)
        done
      end
    done
  end

let btran_with t y x =
  let c = t.core in
  let m = t.m in
  let lp = c.lp and li = c.li and lv = c.lv in
  load_slots t y x;
  solve_ut t y;
  (* Lᵀ w = z, backward (gather: column k of L lists later steps) *)
  for k = m - 1 downto 0 do
    let acc = ref y.(k) in
    for e = lp.(k) to lp.(k + 1) - 1 do
      acc := !acc -. (FA.unsafe_get lv e *. y.(Array.unsafe_get li e))
    done;
    y.(k) <- !acc
  done;
  for k = 0 to m - 1 do
    x.(c.prow.(k)) <- y.(k)
  done;
  count_solve c_btran c_btran_nnz x m

(* [btran_with t y x; btran_with t y2 x2], bit for bit, in one sweep:
   the update-column, row-eta and Lᵀ passes gather or scatter from one
   shared index walk with two chains; each scatter keeps each vector's
   own [<> 0.] skip, so neither touches an entry (signed zeros
   included) that its own solve would skip. *)
let btran2_with t y y2 x x2 =
  let c = t.core in
  let m = t.m and n = t.nup and dead = t.dead in
  let lp = c.lp and li = c.li and lv = c.lv in
  let up = c.up and ui = c.ui and uv = c.uv in
  load_slots t y x;
  load_slots t y2 x2;
  for k = 0 to m - 1 do
    if Bytes.unsafe_get dead k = '\000' then begin
      let d = FA.unsafe_get c.udiag k in
      let zk = y.(k) /. d and zk2 = y2.(k) /. d in
      y.(k) <- zk;
      y2.(k) <- zk2;
      if zk <> 0. then begin
        if zk2 <> 0. then
          for e = up.(k) to up.(k + 1) - 1 do
            let j = Array.unsafe_get ui e and u = FA.unsafe_get uv e in
            y.(j) <- y.(j) -. (u *. zk);
            y2.(j) <- y2.(j) -. (u *. zk2)
          done
        else
          for e = up.(k) to up.(k + 1) - 1 do
            let j = Array.unsafe_get ui e in
            y.(j) <- y.(j) -. (FA.unsafe_get uv e *. zk)
          done
      end
      else if zk2 <> 0. then
        for e = up.(k) to up.(k + 1) - 1 do
          let j = Array.unsafe_get ui e in
          y2.(j) <- y2.(j) -. (FA.unsafe_get uv e *. zk2)
        done
    end
  done;
  if n > 0 then begin
    clear_retired t y;
    clear_retired t y2;
    for j = 0 to n - 1 do
      if Bytes.unsafe_get dead (m + j) = '\000' then begin
        let u = Array.unsafe_get t.log j in
        let si = u.u_si and sv = u.u_sv in
        let acc = ref y.(m + j) and acc2 = ref y2.(m + j) in
        for e = 0 to Array.length si - 1 do
          let s = Array.unsafe_get si e and v = FA.unsafe_get sv e in
          acc := !acc -. (v *. y.(s));
          acc2 := !acc2 -. (v *. y2.(s))
        done;
        y.(m + j) <- !acc /. u.u_d;
        y2.(m + j) <- !acc2 /. u.u_d
      end
    done;
    for j = n - 1 downto 0 do
      let u = Array.unsafe_get t.log j in
      let ri = u.u_ri and rv = u.u_rv in
      let v = y.(m + j) and v2 = y2.(m + j) in
      y.(u.u_old) <- v;
      y2.(u.u_old) <- v2;
      if v <> 0. then begin
        if v2 <> 0. then
          for e = 0 to Array.length ri - 1 do
            let s = Array.unsafe_get ri e and r = FA.unsafe_get rv e in
            y.(s) <- y.(s) -. (r *. v);
            y2.(s) <- y2.(s) -. (r *. v2)
          done
        else
          for e = 0 to Array.length ri - 1 do
            let s = Array.unsafe_get ri e in
            y.(s) <- y.(s) -. (FA.unsafe_get rv e *. v)
          done
      end
      else if v2 <> 0. then
        for e = 0 to Array.length ri - 1 do
          let s = Array.unsafe_get ri e in
          y2.(s) <- y2.(s) -. (FA.unsafe_get rv e *. v2)
        done
    done
  end;
  for k = m - 1 downto 0 do
    let acc = ref y.(k) and acc2 = ref y2.(k) in
    for e = lp.(k) to lp.(k + 1) - 1 do
      let i = Array.unsafe_get li e and l = FA.unsafe_get lv e in
      acc := !acc -. (l *. y.(i));
      acc2 := !acc2 -. (l *. y2.(i))
    done;
    y.(k) <- !acc;
    y2.(k) <- !acc2
  done;
  for k = 0 to m - 1 do
    let r = c.prow.(k) in
    x.(r) <- y.(k);
    x2.(r) <- y2.(k)
  done;
  count_solve c_btran c_btran_nnz x m;
  count_solve c_btran c_btran_nnz x2 m

let with_solve_scratch solve t x =
  let s = acquire () in
  match
    ensure_solve s (t.m + t.nup);
    solve t s.ws x
  with
  | () -> release s
  | exception e ->
      release s;
      raise e

let ftran t x = with_solve_scratch (ftran_with ~keep:false) t x

let ftran_spike t x = with_solve_scratch (ftran_with ~keep:true) t x

let btran t x = with_solve_scratch btran_with t x

let btran2 t x x2 =
  let s = acquire () in
  match
    ensure_solve2 s (t.m + t.nup);
    btran2_with t s.ws s.ws2 x x2
  with
  | () -> release s
  | exception e ->
      release s;
      raise e

(* ------------------------------------------------------------------ *)
(* Forrest–Tomlin updates                                              *)
(* ------------------------------------------------------------------ *)

(* The slot holding basis position [p]: the newest update there, else
   its core step. *)
let slot_of t p =
  let s = ref (-1) and j = ref (t.nup - 1) in
  while !s < 0 && !j >= 0 do
    if (Array.unsafe_get t.log !j).u_pos = p then s := t.m + !j;
    decr j
  done;
  if !s >= 0 then !s else t.core.pstep.(p)

(* Into [y], the z with zᵀU = d·e_oldᵀ (d the diagonal at slot [old])
   over the live slots: z_old = 1, zero before [old] in U's order, and
   -z after it holds the multipliers of the rows that eliminate row
   [old]'s entries there. *)
let row_multipliers t y old =
  let c = t.core in
  let m = t.m and n = t.nup and dead = t.dead in
  Array.fill y 0 (m + n) 0.;
  y.(old) <- 1.;
  if old < m then begin
    for k = old to m - 1 do
      let yk = y.(k) in
      if yk <> 0. && Bytes.unsafe_get dead k = '\000' then begin
        let zk = if k = old then 1. else yk /. FA.unsafe_get c.udiag k in
        y.(k) <- zk;
        for e = c.up.(k) to c.up.(k + 1) - 1 do
          let j = Array.unsafe_get c.ui e in
          y.(j) <- y.(j) -. (FA.unsafe_get c.uv e *. zk)
        done
      end
    done;
    clear_retired t y
  end;
  for j = (if old < m then 0 else old - m + 1) to n - 1 do
    if Bytes.unsafe_get dead (m + j) = '\000' then begin
      let u = Array.unsafe_get t.log j in
      let si = u.u_si and sv = u.u_sv in
      let acc = ref y.(m + j) in
      for e = 0 to Array.length si - 1 do
        acc := !acc -. (FA.unsafe_get sv e *. y.(Array.unsafe_get si e))
      done;
      y.(m + j) <- !acc /. u.u_d
    end
  done

(* The logged update for the kept spike replacing slot [old] at
   position [r]; [z] is scratch of length >= m + nup. *)
let make_upd t z ~old ~r =
  let m = t.m and n = t.nup in
  row_multipliers t z old;
  (* The new diagonal is the spike's entry on row [old] after the row
     eta: the spike dotted with z. *)
  let d = ref 0. and ns = ref 0 in
  for e = 0 to t.sp_n - 1 do
    let s = t.sp_i.(e) in
    d := !d +. (z.(s) *. t.sp_v.(e));
    if s <> old then incr ns
  done;
  let nr = ref 0 in
  for s = old + 1 to m + n - 1 do
    if z.(s) <> 0. && Bytes.unsafe_get t.dead s = '\000' then incr nr
  done;
  let ri = Array.make !nr 0 and rv = FA.create !nr in
  let k = ref 0 in
  for s = old + 1 to m + n - 1 do
    if z.(s) <> 0. && Bytes.unsafe_get t.dead s = '\000' then begin
      ri.(!k) <- s;
      FA.set rv !k (-.z.(s));
      incr k
    end
  done;
  let si = Array.make !ns 0 and sv = FA.create !ns in
  k := 0;
  for e = 0 to t.sp_n - 1 do
    let s = t.sp_i.(e) in
    if s <> old then begin
      si.(!k) <- s;
      FA.set sv !k t.sp_v.(e);
      incr k
    end
  done;
  { u_old = old; u_pos = r; u_d = !d; u_si = si; u_sv = sv; u_ri = ri; u_rv = rv }

let replace t ~r ~alpha =
  if t.sp_at <> t.nup then invalid_arg "Lu.replace: no spike kept since the last basis change";
  let m = t.m and n = t.nup in
  let old = slot_of t r in
  let d_old = if old < m then FA.get t.core.udiag old else t.log.(old - m).u_d in
  let s = acquire () in
  let u =
    match
      ensure_solve s (m + n);
      make_upd t s.ws ~old ~r
    with
    | u ->
        release s;
        u
    | exception e ->
        release s;
        raise e
  in
  if n >= Array.length t.log then begin
    let grown = Array.make (max 8 (2 * n)) dummy_upd in
    Array.blit t.log 0 grown 0 n;
    t.log <- grown
  end;
  t.log.(n) <- u;
  t.nup <- n + 1;
  t.unz <- t.unz + 1 + Array.length u.u_si + Array.length u.u_ri;
  if Bytes.length t.dead < m + n + 1 then begin
    let grown = Bytes.make (m + Array.length t.log) '\000' in
    Bytes.blit t.dead 0 grown 0 (m + n);
    t.dead <- grown
  end;
  Bytes.set t.dead old '\001';
  t.sp_at <- -1;
  (* Stability: the new diagonal must be the old one times the pivot,
     as det B'/det B = alpha. *)
  Float.abs alpha >= 1e-9 && Float.abs (u.u_d -. (alpha *. d_old)) <= 1e-8 *. Float.abs u.u_d

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let snapshot t = { f_core = t.core; f_log = Array.sub t.log 0 t.nup; f_unz = t.unz }

let of_factor f =
  let n = Array.length f.f_log in
  if n = 0 then handle f.f_core
  else begin
    let log = Array.make (max 8 (2 * n)) dummy_upd in
    Array.blit f.f_log 0 log 0 n;
    let dead = Bytes.make (f.f_core.cm + Array.length log) '\000' in
    Array.iter (fun u -> Bytes.set dead u.u_old '\001') f.f_log;
    { m = f.f_core.cm; core = f.f_core; log; nup = n; unz = f.f_unz; dead; sp_i = [||];
      sp_v = [||]; sp_n = 0; sp_at = -1 }
  end

(* ------------------------------------------------------------------ *)
(* Factorization                                                       *)
(* ------------------------------------------------------------------ *)

exception Singular

(* Entries smaller than this after an elimination update are treated as
   structural zeros (they are cancellation noise at the magnitudes these
   flow/implication matrices carry; the conditioning probe below guards
   the aggregate effect). *)
let drop_tol = 1e-13

let empty_core =
  { cm = 0; prow = [||]; pcol = [||]; pstep = [||]; lp = [| 0 |]; li = [||]; lv = FA.create 0;
    up = [| 0 |]; ui = [||]; uv = FA.create 0; udiag = FA.create 0; cnnz = 0 }

(* Assemble B into [s.bp]/[s.bi]/[s.bv]: position [i]'s column is CSC
   column [basis.(i)], with a row repeated within a column summed into
   its first occurrence and entries that sum to zero dropped. *)
let assemble s ~m ~colp ~coli ~colv basis =
  let nnz = ref 0 in
  for i = 0 to m - 1 do
    let j = basis.(i) in
    nnz := !nnz + colp.(j + 1) - colp.(j)
  done;
  s.bi <- cap_i s.bi !nnz 0;
  s.bv <- cap_f s.bv !nnz 0;
  let bi = s.bi and bv = s.bv and acc = s.acc and mark = s.amark in
  Array.fill mark 0 m (-1);
  let top = ref 0 in
  for c = 0 to m - 1 do
    let j = basis.(c) in
    let start = !top in
    s.bp.(c) <- start;
    for k = colp.(j) to colp.(j + 1) - 1 do
      let r = coli.(k) and a = FA.get colv k in
      if r < 0 || r >= m then raise Singular;
      if mark.(r) <> c then begin
        mark.(r) <- c;
        acc.(r) <- a;
        bi.(!top) <- r;
        incr top
      end
      else acc.(r) <- acc.(r) +. a
    done;
    let stop = !top in
    top := start;
    for e = start to stop - 1 do
      let r = bi.(e) in
      if acc.(r) <> 0. then begin
        bi.(!top) <- r;
        bv.(!top) <- acc.(r);
        incr top
      end
    done
  done;
  s.bp.(m) <- !top

(* Right-looking elimination of the assembled B.  Each active column is
   a run of the [pi]/[pv] pool.  A pivot with an empty L column (a
   column singleton) deletes its row from each column holding it in
   place; any other pivot rewrites each such column, with its fill-in,
   at the pool's end, and a full pool is compacted into [pi2]/[pv2]
   (then the two swap).  Each row keeps the columns that ever held it
   as a linked list of nodes, newest first — a superset hint, as stale
   entries miss on the scan.

   Pivot rule and entry order, on which the factors' bits depend:
   - a rewritten column keeps its surviving old entries in their order,
     then its fill-ins in L order;
   - step [k]'s L column lists the pivot column's other entries in its
     order; its U row lists the columns the pivot row was eliminated
     from in the reverse of the order they were visited. *)
let eliminate s ~m ~prow ~pcol ~udiag ~lp ~up =
  let bp = s.bp in
  let bnnz = bp.(m) in
  let rcount = s.rcount and ccount = s.ccount and cstart = s.cstart in
  let rhead = s.rhead and seen = s.seen and amark = s.amark and acc = s.acc in
  let coldone = s.coldone and inheap = s.inheap and heap = s.heap in
  Array.fill rcount 0 m 0;
  Array.fill rhead 0 m (-1);
  Array.fill seen 0 m (-1);
  Array.fill amark 0 m (-1);
  Bytes.fill coldone 0 m '\000';
  (* Active pool: the assembled columns first, room to grow after. *)
  s.pi <- cap_i s.pi (2 * bnnz) 0;
  s.pv <- cap_f s.pv (2 * bnnz) 0;
  Array.blit s.bi 0 s.pi 0 bnnz;
  Array.blit s.bv 0 s.pv 0 bnnz;
  let pend = ref bnnz in
  s.rn_col <- cap_i s.rn_col bnnz 0;
  s.rn_next <- cap_i s.rn_next bnnz 0;
  let nodes = ref 0 in
  let add_node r c =
    if !nodes >= Array.length s.rn_col then begin
      s.rn_col <- cap_i s.rn_col (!nodes + 1) !nodes;
      s.rn_next <- cap_i s.rn_next (!nodes + 1) !nodes
    end;
    let nd = !nodes in
    s.rn_col.(nd) <- c;
    s.rn_next.(nd) <- rhead.(r);
    rhead.(r) <- nd;
    nodes := nd + 1
  in
  for c = 0 to m - 1 do
    cstart.(c) <- bp.(c);
    ccount.(c) <- bp.(c + 1) - bp.(c);
    for e = bp.(c) to bp.(c + 1) - 1 do
      let r = s.pi.(e) in
      rcount.(r) <- rcount.(r) + 1;
      add_node r c
    done
  done;
  (* Move every active column to the front of the spare pool, in
     column order, and make that pool current; [need] more entries
     must then fit. *)
  let compact need =
    let live = ref 0 in
    for c = 0 to m - 1 do
      if Bytes.unsafe_get coldone c = '\000' then live := !live + ccount.(c)
    done;
    let cap = max (Array.length s.pi) (2 * (!live + need)) in
    if Array.length s.pi2 < cap then begin
      s.pi2 <- Array.make cap 0;
      s.pv2 <- Array.make cap 0.
    end;
    let pi = s.pi and pv = s.pv and qi = s.pi2 and qv = s.pv2 in
    let top = ref 0 in
    for c = 0 to m - 1 do
      if Bytes.unsafe_get coldone c = '\000' then begin
        let n = ccount.(c) in
        Array.blit pi cstart.(c) qi !top n;
        Array.blit pv cstart.(c) qv !top n;
        cstart.(c) <- !top;
        top := !top + n
      end
    done;
    s.pi2 <- pi;
    s.pv2 <- pv;
    s.pi <- qi;
    s.pv <- qv;
    pend := !top
  in
  (* Candidate columns for a zero-score pivot (a column singleton, or an
     entry alone in its row), as a min-heap of column indices with lazy
     deletion.  Invariant: every active column that holds an eligible
     zero-score entry is in the heap.  Such an entry can only appear
     when its column is rewritten (pushed below) or when one of its rows
     drops to a count of 1 (its columns are pushed by [dec_row]); the
     heap may also hold columns that no longer qualify, which are
     discarded when they reach the top.  Pops come out in column order
     whatever the push order. *)
  let hn = ref m in
  for c = 0 to m - 1 do
    heap.(c) <- c
  done;
  Bytes.fill inheap 0 m '\001';
  let push c =
    if Bytes.unsafe_get inheap c = '\000' then begin
      Bytes.unsafe_set inheap c '\001';
      let i = ref !hn in
      incr hn;
      while !i > 0 && heap.((!i - 1) / 2) > c do
        heap.(!i) <- heap.((!i - 1) / 2);
        i := (!i - 1) / 2
      done;
      heap.(!i) <- c
    end
  in
  let pop () =
    let top = heap.(0) in
    Bytes.unsafe_set inheap top '\000';
    decr hn;
    let n = !hn in
    if n > 0 then begin
      let x = heap.(n) in
      let i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= n then sifting := false
        else begin
          let k = if l + 1 < n && heap.(l + 1) < heap.(l) then l + 1 else l in
          if heap.(k) < x then begin
            heap.(!i) <- heap.(k);
            i := k
          end
          else sifting := false
        end
      done;
      heap.(!i) <- x
    end;
    top
  in
  (* Row counts only fall here; a row whose count reaches 1 may have
     made its last column eligible.  A rewritten column adds its new
     entries to the counts before removing its old ones, so a row it
     keeps never passes through 1 on the way.  The current pivot row
     [cur] is the exception: it is leaving every active column in this
     step, so its count reaching 1 makes nothing eligible and its
     columns are not walked. *)
  let cur = ref (-1) in
  let dec_row r =
    let n = rcount.(r) - 1 in
    rcount.(r) <- n;
    if n = 1 && r <> !cur then begin
      let nd = ref rhead.(r) in
      while !nd >= 0 do
        let c = s.rn_col.(!nd) in
        if Bytes.unsafe_get coldone c = '\000' then push c;
        nd := s.rn_next.(!nd)
      done
    end
  in
  (* The pool position of the entry of column [c] that the full scan
     below would pick if [c] were the first column it reached with a
     zero score: among entries passing the threshold with
     (ccount-1)(rcount-1) = 0, the largest |a|, the first in entry order
     on ties.  -1 when there is none. *)
  let zero_score_entry c =
    let pi = s.pi and pv = s.pv in
    let e0 = cstart.(c) in
    let e1 = e0 + ccount.(c) - 1 in
    let cmax = ref 0. in
    for e = e0 to e1 do
      let aa = Float.abs (Array.unsafe_get pv e) in
      if aa > !cmax then cmax := aa
    done;
    let best = ref (-1) and babs = ref 0. in
    if !cmax > 1e-11 then begin
      let thresh = 0.1 *. !cmax in
      let cc = ccount.(c) in
      for e = e0 to e1 do
        let aa = Float.abs (Array.unsafe_get pv e) in
        if
          aa >= thresh
          && (cc - 1) * (rcount.(Array.unsafe_get pi e) - 1) = 0
          && (!best < 0 || aa > !babs)
        then begin
          best := e;
          babs := aa
        end
      done
    end;
    !best
  in
  let ltop = ref 0 and utop = ref 0 and stamp = ref 0 in
  for step = 0 to m - 1 do
    (* Markowitz search under threshold pivoting: minimize the fill
       estimate (ccount-1)(rcount-1) over entries carrying at least a
       tenth of their column's largest active magnitude, ties to the
       larger |a|, then to scan order.  A zero score cannot be beaten,
       so the scan stops at the first column showing one; the heap
       hands over that same column directly. *)
    let bc = ref (-1) and br = ref (-1) and ba = ref 0. in
    let found = ref false in
    while (not !found) && !hn > 0 do
      let c = pop () in
      if Bytes.unsafe_get coldone c = '\000' then begin
        let e = zero_score_entry c in
        if e >= 0 then begin
          bc := c;
          br := s.pi.(e);
          ba := s.pv.(e);
          found := true
        end
      end
    done;
    if not !found then begin
      (* No zero-score pivot left: scan every active column. *)
      let pi = s.pi and pv = s.pv in
      let bscore = ref max_int in
      let c = ref 0 in
      while !c < m do
        let col = !c in
        if Bytes.unsafe_get coldone col = '\000' then begin
          let e0 = cstart.(col) in
          let e1 = e0 + ccount.(col) - 1 in
          let cmax = ref 0. in
          for e = e0 to e1 do
            let aa = Float.abs (Array.unsafe_get pv e) in
            if aa > !cmax then cmax := aa
          done;
          if !cmax > 1e-11 then begin
            let thresh = 0.1 *. !cmax in
            let cc = ccount.(col) in
            for e = e0 to e1 do
              let a = Array.unsafe_get pv e in
              let aa = Float.abs a in
              if aa >= thresh then begin
                let r = Array.unsafe_get pi e in
                let score = (cc - 1) * (rcount.(r) - 1) in
                if score < !bscore || (score = !bscore && aa > Float.abs !ba) then begin
                  bscore := score;
                  bc := col;
                  br := r;
                  ba := a
                end
              end
            done;
            if !bscore = 0 then c := m
          end
        end;
        incr c
      done
    end;
    if !bc < 0 then raise Singular;
    let pc = !bc and pr = !br and pa = !ba in
    cur := pr;
    prow.(step) <- pr;
    pcol.(step) <- pc;
    FA.set udiag step pa;
    (* L multipliers: the pivot column's other active entries. *)
    let p0 = cstart.(pc) and npiv = ccount.(pc) in
    s.lr <- cap_i s.lr (!ltop + npiv) !ltop;
    s.lx <- cap_f s.lx (!ltop + npiv) !ltop;
    let l0 = !ltop in
    lp.(step) <- l0;
    for e = p0 to p0 + npiv - 1 do
      let r = s.pi.(e) in
      if r <> pr then begin
        s.lr.(!ltop) <- r;
        s.lx.(!ltop) <- s.pv.(e) /. pa;
        incr ltop
      end
    done;
    let l1 = !ltop in
    for e = p0 to p0 + npiv - 1 do
      dec_row s.pi.(e)
    done;
    ccount.(pc) <- 0;
    Bytes.set coldone pc '\001';
    (* Eliminate the pivot row out of every active column carrying it.
       With an empty L column that only deletes the row, in place.
       Otherwise the column goes through the dense accumulator so
       fill-in lands in one pass; old entries are stamped [st],
       fill-ins [st + 1]. *)
    up.(step) <- !utop;
    let nd = ref rhead.(pr) in
    while !nd >= 0 do
      let c = s.rn_col.(!nd) in
      nd := s.rn_next.(!nd);
      if Bytes.unsafe_get coldone c = '\000' && seen.(c) <> step then begin
        seen.(c) <- step;
        let nent = ccount.(c) in
        let upc = ref 0. and hit = ref false in
        let e0 = cstart.(c) in
        for e = e0 to e0 + nent - 1 do
          if s.pi.(e) = pr then begin
            upc := !upc +. s.pv.(e);
            hit := true
          end
        done;
        if !hit then begin
          let u = !upc in
          if !utop >= Array.length s.uc then begin
            s.uc <- cap_i s.uc (!utop + 1) !utop;
            s.ux <- cap_f s.ux (!utop + 1) !utop
          end;
          s.uc.(!utop) <- c;
          s.ux.(!utop) <- u;
          incr utop;
          if l1 = l0 then begin
            (* The rewrite below would keep every other entry with its
               own value and in its order, dropping those at or under
               the tolerance; do exactly that where the column lies.
               Kept rows keep their counts, so a kept entry can only
               have become a zero-score candidate if the column's
               largest magnitude fell (lowering the pivot threshold)
               or at most one entry is left; a removed row reaching a
               count of 1 pushes its columns through [dec_row]. *)
            let pi = s.pi and pv = s.pv in
            let top = ref e0 and kmax = ref 0. and rmax = ref 0. in
            for e = e0 to e0 + nent - 1 do
              let r = pi.(e) and v = pv.(e) in
              let av = Float.abs v in
              if r <> pr && av > drop_tol then begin
                pi.(!top) <- r;
                pv.(!top) <- v;
                incr top;
                if av > !kmax then kmax := av
              end
              else begin
                if av > !rmax then rmax := av;
                dec_row r
              end
            done;
            ccount.(c) <- !top - e0;
            if !rmax > !kmax || !top - e0 <= 1 then push c
          end
          else begin
            if !pend + nent + (l1 - l0) > Array.length s.pi then compact (nent + l1 - l0);
            let pi = s.pi and pv = s.pv in
            let e0 = cstart.(c) in
            stamp := !stamp + 2;
            let st = !stamp in
            for e = e0 to e0 + nent - 1 do
              let r = pi.(e) in
              if r <> pr then begin
                amark.(r) <- st;
                acc.(r) <- pv.(e)
              end
            done;
            for e = l0 to l1 - 1 do
              let lr = s.lr.(e) in
              let delta = s.lx.(e) *. u in
              if amark.(lr) = st then acc.(lr) <- acc.(lr) -. delta
              else begin
                amark.(lr) <- st + 1;
                acc.(lr) <- -.delta;
                add_node lr c
              end
            done;
            let n0 = !pend in
            let top = ref n0 in
            for e = e0 to e0 + nent - 1 do
              let r = pi.(e) in
              if r <> pr && Float.abs acc.(r) > drop_tol then begin
                pi.(!top) <- r;
                pv.(!top) <- acc.(r);
                incr top
              end
            done;
            for e = l0 to l1 - 1 do
              let lr = s.lr.(e) in
              if amark.(lr) = st + 1 && Float.abs acc.(lr) > drop_tol then begin
                pi.(!top) <- lr;
                pv.(!top) <- acc.(lr);
                incr top
              end
            done;
            pend := !top;
            for e = n0 to !top - 1 do
              let r = pi.(e) in
              rcount.(r) <- rcount.(r) + 1
            done;
            for e = e0 to e0 + nent - 1 do
              dec_row pi.(e)
            done;
            cstart.(c) <- n0;
            ccount.(c) <- !top - n0;
            push c
          end
        end
      end
    done;
    rhead.(pr) <- -1
  done;
  lp.(m) <- !ltop;
  up.(m) <- !utop

let factorize_with s ~m ~colp ~coli ~colv basis =
  ensure_factorize s m;
  assemble s ~m ~colp ~coli ~colv basis;
  let prow = Array.make m 0 and pcol = Array.make m 0 in
  let udiag = FA.create m in
  let lp = Array.make (m + 1) 0 and up = Array.make (m + 1) 0 in
  eliminate s ~m ~prow ~pcol ~udiag ~lp ~up;
  (* Re-index rows/positions to steps and copy out the exact-size
     factor; a U row is read back in reverse visit order. *)
  let rstep = s.rstep and posstep = s.posstep in
  for k = 0 to m - 1 do
    rstep.(prow.(k)) <- k;
    posstep.(pcol.(k)) <- k
  done;
  let nl = lp.(m) and nu = up.(m) in
  let li = Array.make nl 0 and lv = FA.create nl in
  for e = 0 to nl - 1 do
    li.(e) <- rstep.(s.lr.(e));
    FA.set lv e s.lx.(e)
  done;
  let ui = Array.make nu 0 and uv = FA.create nu in
  for k = 0 to m - 1 do
    let u0 = up.(k) and u1 = up.(k + 1) in
    for e = u0 to u1 - 1 do
      let src = u0 + u1 - 1 - e in
      ui.(e) <- posstep.(s.uc.(src));
      FA.set uv e s.ux.(src)
    done
  done;
  let pstep = Array.sub posstep 0 m in
  let core = { cm = m; prow; pcol; pstep; lp; li; lv; up; ui; uv; udiag; cnnz = m + nl + nu } in
  let t = handle core in
  (* Conditioning probe: a factorization whose solve cannot reproduce
     B·(B⁻¹·1) = 1 to a relative 1e-8 would silently corrupt basic
     values downstream; reject it so callers fall back to a cold
     start. *)
  let x = s.px and z = s.pz in
  Array.fill x 0 m 1.;
  ftran_with ~keep:false t s.ws x;
  Array.fill z 0 m 0.;
  let xmax = ref 1. in
  for c = 0 to m - 1 do
    let xc = x.(c) in
    if xc <> 0. then
      for e = s.bp.(c) to s.bp.(c + 1) - 1 do
        let r = s.bi.(e) in
        z.(r) <- z.(r) +. (s.bv.(e) *. xc)
      done;
    if Float.abs xc > !xmax then xmax := Float.abs xc
  done;
  let err = ref 0. in
  for r = 0 to m - 1 do
    err := Float.max !err (Float.abs (z.(r) -. 1.))
  done;
  if !err > 1e-8 *. !xmax then None
  else begin
    if Atomic.get counting then ignore (Atomic.fetch_and_add c_factor 1);
    Some t
  end

let factorize_csc ~m ~colp ~coli ~colv basis =
  if m = 0 then Some (handle empty_core)
  else begin
    let s = acquire () in
    match factorize_with s ~m ~colp ~coli ~colv basis with
    | r ->
        release s;
        r
    | exception Singular ->
        release s;
        None
    | exception e ->
        release s;
        raise e
  end

let factorize ~m col =
  let cols = Array.init m col in
  let colp = Array.make (m + 1) 0 in
  Array.iteri (fun i c -> colp.(i + 1) <- colp.(i) + Array.length c) cols;
  let coli = Array.make colp.(m) 0 and colv = FA.create colp.(m) in
  Array.iteri
    (fun i c ->
      Array.iteri
        (fun k (r, a) ->
          coli.(colp.(i) + k) <- r;
          FA.set colv (colp.(i) + k) a)
        c)
    cols;
  factorize_csc ~m ~colp ~coli ~colv (Array.init m Fun.id)

(* ------------------------------------------------------------------ *)
(* Growing a factor for appended rows                                  *)
(* ------------------------------------------------------------------ *)

let extend_rows f vrows =
  let kext = Array.length vrows in
  if kext = 0 then f
  else begin
    let c = f.f_core in
    let m = c.cm in
    let m' = m + kext in
    let prow = Array.init m' (fun i -> if i < m then c.prow.(i) else i) in
    let pcol = Array.init m' (fun i -> if i < m then c.pcol.(i) else i) in
    let pstep = Array.init m' (fun i -> if i < m then c.pstep.(i) else i) in
    let udiag = FA.init m' (fun i -> if i < m then FA.get c.udiag i else 1.) in
    (* The new steps have empty U rows, so U's entries are shared. *)
    let up = Array.init (m' + 1) (fun i -> c.up.(min i m)) in
    (* Extra L entries per old step, targeting the new trivial steps:
       the grown matrix is [[B 0] [V I]] = [[L 0] [W I]]·[[R⁻¹U 0] [0 I]]
       with W R⁻¹U = V, so W is V through the Uᵀ solve and the row-eta
       transposes, as a BTRAN before its Lᵀ pass.  New steps never feed
       old ones, so every old-step solve value is preserved bit-for-bit.
       Each old step's extra entries follow its own, by new row. *)
    let t = of_factor f in
    let extcnt = Array.make (m + 1) 0 in
    let ext_j = Vec.create () and ext_v = Vec.Float.create () in
    let ext_row = Array.make (kext + 1) 0 in
    let v = Array.make (max m 1) 0. in
    let vh = Array.make (max (m + t.nup) 1) 0. in
    for t0 = 0 to kext - 1 do
      Array.fill v 0 m 0.;
      Array.iter (fun (pos, a) -> v.(pos) <- v.(pos) +. a) vrows.(t0);
      load_slots t vh v;
      solve_ut t vh;
      for j = 0 to m - 1 do
        if vh.(j) <> 0. then begin
          Vec.add_last ext_j j;
          Vec.Float.add_last ext_v vh.(j);
          extcnt.(j) <- extcnt.(j) + 1
        end
      done;
      ext_row.(t0 + 1) <- Vec.length ext_j
    done;
    let extnnz = Vec.length ext_j in
    let lp = Array.make (m' + 1) 0 in
    for j = 0 to m' - 1 do
      let own = if j < m then c.lp.(j + 1) - c.lp.(j) + extcnt.(j) else 0 in
      lp.(j + 1) <- lp.(j) + own
    done;
    let nl = lp.(m') in
    let li = Array.make nl 0 and lv = FA.create nl in
    let fill = Array.make (max m 1) 0 in
    for j = 0 to m - 1 do
      let n0 = c.lp.(j + 1) - c.lp.(j) in
      Array.blit c.li c.lp.(j) li lp.(j) n0;
      FA.blit c.lv c.lp.(j) lv lp.(j) n0;
      fill.(j) <- lp.(j) + n0
    done;
    for t0 = 0 to kext - 1 do
      for x = ext_row.(t0) to ext_row.(t0 + 1) - 1 do
        let j = Vec.get ext_j x in
        li.(fill.(j)) <- m + t0;
        FA.set lv fill.(j) (Vec.Float.get ext_v x);
        fill.(j) <- fill.(j) + 1
      done
    done;
    (* The update slots move up past the new steps. *)
    let shift s = if s >= m then s + kext else s in
    let log =
      Array.map
        (fun u ->
          { u with u_old = shift u.u_old; u_si = Array.map shift u.u_si;
                   u_ri = Array.map shift u.u_ri })
        f.f_log
    in
    { f_core =
        { cm = m'; prow; pcol; pstep; lp; li; lv; up; ui = c.ui; uv = c.uv; udiag;
          cnnz = c.cnnz + kext + extnnz };
      f_log = log;
      f_unz = f.f_unz }
  end
