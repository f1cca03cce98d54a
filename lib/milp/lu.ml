(* Sparse LU of a basis matrix, product-form eta updates, sparse
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
   does too. *)

module FA = Float.Array

type core = {
  cm : int;
  prow : int array;  (* step -> row *)
  pcol : int array;  (* step -> position *)
  lp : int array;  (* step -> start of its L column in [li]/[lv]; length cm+1 *)
  li : int array;  (* later-step targets of the L columns *)
  lv : floatarray;  (* multipliers, parallel to [li] *)
  up : int array;  (* step -> start of its U row in [ui]/[uv]; length cm+1 *)
  ui : int array;  (* later-step targets of the U rows *)
  uv : floatarray;  (* values, parallel to [ui] *)
  udiag : floatarray;
  cnnz : int;
}

type eta = { e_r : int; e_d : float; e_i : int array; e_v : floatarray }

type factor = { f_core : core; f_etas : eta array }

type t = {
  m : int;
  core : core;
  mutable etas : eta array;  (* buffer; [0, neta) live *)
  mutable neta : int;
  mutable enz : int;
}

let dim t = t.m

let neta t = t.neta

let nnz t = t.core.cnnz + t.enz

let factor_dim f = f.f_core.cm

let factor_neta f = Array.length f.f_etas

let dummy_eta = { e_r = 0; e_d = 1.; e_i = [||]; e_v = FA.create 0 }

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

let ensure_solve s m = if Array.length s.ws < m then s.ws <- Array.make m 0.

let ensure_solve2 s m =
  ensure_solve s m;
  if Array.length s.ws2 < m then s.ws2 <- Array.make m 0.

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

(* [y] is step-space scratch of length >= [t.m]. *)
let ftran_with t y x =
  let c = t.core in
  let m = t.m in
  let lp = c.lp and li = c.li and lv = c.lv in
  let up = c.up and ui = c.ui and uv = c.uv in
  for k = 0 to m - 1 do
    y.(k) <- x.(c.prow.(k))
  done;
  (* L y' = y, forward *)
  for k = 0 to m - 1 do
    let yk = y.(k) in
    if yk <> 0. then
      for e = lp.(k) to lp.(k + 1) - 1 do
        let j = Array.unsafe_get li e in
        y.(j) <- y.(j) -. (FA.unsafe_get lv e *. yk)
      done
  done;
  (* U z = y', backward (row-wise gather; later steps already solved) *)
  for k = m - 1 downto 0 do
    let acc = ref y.(k) in
    for e = up.(k) to up.(k + 1) - 1 do
      acc := !acc -. (FA.unsafe_get uv e *. y.(Array.unsafe_get ui e))
    done;
    y.(k) <- !acc /. FA.unsafe_get c.udiag k
  done;
  for k = 0 to m - 1 do
    x.(c.pcol.(k)) <- y.(k)
  done;
  (* eta file, oldest first: x := E_q⁻¹ x *)
  for q = 0 to t.neta - 1 do
    let e = t.etas.(q) in
    let xr = x.(e.e_r) /. e.e_d in
    x.(e.e_r) <- xr;
    if xr <> 0. then begin
      let ei = e.e_i and ev = e.e_v in
      for k = 0 to Array.length ei - 1 do
        let i = Array.unsafe_get ei k in
        x.(i) <- x.(i) -. (FA.unsafe_get ev k *. xr)
      done
    end
  done;
  count_solve c_ftran c_ftran_nnz x m

let btran_with t y x =
  let c = t.core in
  let m = t.m in
  let lp = c.lp and li = c.li and lv = c.lv in
  let up = c.up and ui = c.ui and uv = c.uv in
  (* eta transposes, newest first: x := E_q⁻ᵀ x *)
  for q = t.neta - 1 downto 0 do
    let e = t.etas.(q) in
    let acc = ref x.(e.e_r) in
    let ei = e.e_i and ev = e.e_v in
    for k = 0 to Array.length ei - 1 do
      acc := !acc -. (FA.unsafe_get ev k *. x.(Array.unsafe_get ei k))
    done;
    x.(e.e_r) <- !acc /. e.e_d
  done;
  for k = 0 to m - 1 do
    y.(k) <- x.(c.pcol.(k))
  done;
  (* Uᵀ z = ĉ, forward (scatter: row k of U hits later steps) *)
  for k = 0 to m - 1 do
    let zk = y.(k) /. FA.unsafe_get c.udiag k in
    y.(k) <- zk;
    if zk <> 0. then
      for e = up.(k) to up.(k + 1) - 1 do
        let j = Array.unsafe_get ui e in
        y.(j) <- y.(j) -. (FA.unsafe_get uv e *. zk)
      done
  done;
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
   the eta and Lᵀ passes are gathers, so the two accumulator chains
   share each walk over the indices; the Uᵀ pass scatters, and each
   vector keeps its own [<> 0.] skip, so neither touches an entry
   (signed zeros included) that its own solve would skip. *)
let btran2_with t y y2 x x2 =
  let c = t.core in
  let m = t.m in
  let lp = c.lp and li = c.li and lv = c.lv in
  let up = c.up and ui = c.ui and uv = c.uv in
  for q = t.neta - 1 downto 0 do
    let e = t.etas.(q) in
    let acc = ref x.(e.e_r) and acc2 = ref x2.(e.e_r) in
    let ei = e.e_i and ev = e.e_v in
    for k = 0 to Array.length ei - 1 do
      let i = Array.unsafe_get ei k and v = FA.unsafe_get ev k in
      acc := !acc -. (v *. x.(i));
      acc2 := !acc2 -. (v *. x2.(i))
    done;
    x.(e.e_r) <- !acc /. e.e_d;
    x2.(e.e_r) <- !acc2 /. e.e_d
  done;
  for k = 0 to m - 1 do
    let p = c.pcol.(k) in
    y.(k) <- x.(p);
    y2.(k) <- x2.(p)
  done;
  for k = 0 to m - 1 do
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
  done;
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
    ensure_solve s t.m;
    solve t s.ws x
  with
  | () -> release s
  | exception e ->
      release s;
      raise e

let ftran t x = with_solve_scratch ftran_with t x

let btran t x = with_solve_scratch btran_with t x

let btran2 t x x2 =
  let s = acquire () in
  match
    ensure_solve2 s t.m;
    btran2_with t s.ws s.ws2 x x2
  with
  | () -> release s
  | exception e ->
      release s;
      raise e

(* ------------------------------------------------------------------ *)
(* Eta updates                                                         *)
(* ------------------------------------------------------------------ *)

let update t ~r ~w =
  let m = t.m in
  let d = w.(r) in
  let amax = ref 0. and cnt = ref 0 in
  for i = 0 to m - 1 do
    let a = Float.abs w.(i) in
    if a > !amax then amax := a;
    if i <> r && w.(i) <> 0. then incr cnt
  done;
  let ei = Array.make !cnt 0 in
  let ev = FA.create !cnt in
  let k = ref 0 in
  for i = 0 to m - 1 do
    if i <> r && w.(i) <> 0. then begin
      ei.(!k) <- i;
      FA.set ev !k w.(i);
      incr k
    end
  done;
  if t.neta >= Array.length t.etas then begin
    let grown = Array.make (max 8 (2 * Array.length t.etas)) dummy_eta in
    Array.blit t.etas 0 grown 0 t.neta;
    t.etas <- grown
  end;
  t.etas.(t.neta) <- { e_r = r; e_d = d; e_i = ei; e_v = ev };
  t.neta <- t.neta + 1;
  t.enz <- t.enz + !cnt + 1;
  Float.abs d >= 1e-9 && Float.abs d >= 1e-7 *. !amax

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let snapshot t = { f_core = t.core; f_etas = Array.sub t.etas 0 t.neta }

let of_factor f =
  let n = Array.length f.f_etas in
  let etas = Array.make (max 8 (2 * n)) dummy_eta in
  Array.blit f.f_etas 0 etas 0 n;
  let enz = Array.fold_left (fun acc e -> acc + 1 + Array.length e.e_i) 0 f.f_etas in
  { m = f.f_core.cm; core = f.f_core; etas; neta = n; enz }

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
  { cm = 0; prow = [||]; pcol = [||]; lp = [| 0 |]; li = [||]; lv = FA.create 0;
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
  let core = { cm = m; prow; pcol; lp; li; lv; up; ui; uv; udiag; cnnz = m + nl + nu } in
  let t = { m; core; etas = [||]; neta = 0; enz = 0 } in
  (* Conditioning probe: a factorization whose solve cannot reproduce
     B·(B⁻¹·1) = 1 to a relative 1e-8 would silently corrupt basic
     values downstream; reject it so callers fall back to a cold
     start. *)
  let x = s.px and z = s.pz in
  Array.fill x 0 m 1.;
  ftran_with t s.ws x;
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
  if m = 0 then Some { m = 0; core = empty_core; etas = [||]; neta = 0; enz = 0 }
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
    let udiag = FA.init m' (fun i -> if i < m then FA.get c.udiag i else 1.) in
    (* The new steps have empty U rows, so U's entries are shared. *)
    let up = Array.init (m' + 1) (fun i -> c.up.(min i m)) in
    (* Extra L entries per old step, targeting the new trivial steps:
       the grown matrix is [[B 0] [V I]] = [[L 0] [W I]]·[[U 0] [0 I]]
       with W U = V·E⁻¹ (V pushed through the eta file first, since the
       etas post-multiply the core).  New steps never feed old ones, so
       every old-step solve value is preserved bit-for-bit.  Each old
       step's extra entries follow its own, by new row. *)
    let extcnt = Array.make (m + 1) 0 in
    let ext_j = Vec.create () and ext_v = Vec.Float.create () in
    let ext_row = Array.make (kext + 1) 0 in
    let v = Array.make (max m 1) 0. in
    let vh = Array.make (max m 1) 0. in
    for t0 = 0 to kext - 1 do
      Array.fill v 0 m 0.;
      Array.iter (fun (pos, a) -> v.(pos) <- v.(pos) +. a) vrows.(t0);
      for q = Array.length f.f_etas - 1 downto 0 do
        let e = f.f_etas.(q) in
        let a = ref v.(e.e_r) in
        for k = 0 to Array.length e.e_i - 1 do
          a := !a -. (FA.get e.e_v k *. v.(e.e_i.(k)))
        done;
        v.(e.e_r) <- !a /. e.e_d
      done;
      for j = 0 to m - 1 do
        vh.(j) <- v.(c.pcol.(j))
      done;
      (* ŵ U = v̂: forward scatter over U's rows. *)
      for j = 0 to m - 1 do
        let wj = vh.(j) /. FA.get c.udiag j in
        vh.(j) <- wj;
        if wj <> 0. then
          for e = c.up.(j) to c.up.(j + 1) - 1 do
            vh.(c.ui.(e)) <- vh.(c.ui.(e)) -. (wj *. FA.get c.uv e)
          done
      done;
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
    { f_core =
        { cm = m'; prow; pcol; lp; li; lv; up; ui = c.ui; uv = c.uv; udiag;
          cnnz = c.cnnz + kext + extnnz };
      f_etas = f.f_etas }
  end
