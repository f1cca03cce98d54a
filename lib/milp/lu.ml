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

   Storage is unboxed: every factor entry is an (index, value) pair kept
   in parallel [int array] / [floatarray] buffers rather than a tuple
   array, so the triangular solves and eta applications touch flat
   memory and a factor entry costs 2 words instead of 5 (tuple header +
   boxed pair + spine slot).  Entry order is identical to what the tuple
   representation held, which keeps every solve bit-for-bit what it was
   — the [extend_rows] bit-identity guarantee depends on that. *)

module FA = Float.Array

type core = {
  cm : int;
  prow : int array;  (* step -> row *)
  pcol : int array;  (* step -> position *)
  li : int array array;  (* per step: later-step targets of L column *)
  lv : floatarray array;  (* per step: multipliers, parallel to [li] *)
  ui : int array array;  (* per step: later-step targets of U row *)
  uv : floatarray array;  (* per step: values, parallel to [ui] *)
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
  ws : float array;  (* step-space scratch for the triangular solves *)
}

let dim t = t.m

let neta t = t.neta

let nnz t = t.core.cnnz + t.enz

let factor_dim f = f.f_core.cm

let factor_neta f = Array.length f.f_etas

let dummy_eta = { e_r = 0; e_d = 1.; e_i = [||]; e_v = FA.create 0 }

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

let ftran t x =
  let c = t.core in
  let m = t.m in
  let y = t.ws in
  for k = 0 to m - 1 do
    y.(k) <- x.(c.prow.(k))
  done;
  (* L y' = y, forward *)
  for k = 0 to m - 1 do
    let yk = y.(k) in
    if yk <> 0. then begin
      let ti = c.li.(k) and tv = c.lv.(k) in
      for e = 0 to Array.length ti - 1 do
        let j = Array.unsafe_get ti e in
        y.(j) <- y.(j) -. (FA.unsafe_get tv e *. yk)
      done
    end
  done;
  (* U z = y', backward (row-wise gather; later steps already solved) *)
  for k = m - 1 downto 0 do
    let acc = ref y.(k) in
    let ti = c.ui.(k) and tv = c.uv.(k) in
    for e = 0 to Array.length ti - 1 do
      acc := !acc -. (FA.unsafe_get tv e *. y.(Array.unsafe_get ti e))
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

let btran t x =
  let c = t.core in
  let m = t.m in
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
  let y = t.ws in
  for k = 0 to m - 1 do
    y.(k) <- x.(c.pcol.(k))
  done;
  (* Uᵀ z = ĉ, forward (scatter: row k of U hits later steps) *)
  for k = 0 to m - 1 do
    let zk = y.(k) /. FA.unsafe_get c.udiag k in
    y.(k) <- zk;
    if zk <> 0. then begin
      let ti = c.ui.(k) and tv = c.uv.(k) in
      for e = 0 to Array.length ti - 1 do
        let j = Array.unsafe_get ti e in
        y.(j) <- y.(j) -. (FA.unsafe_get tv e *. zk)
      done
    end
  done;
  (* Lᵀ w = z, backward (gather: column k of L lists later steps) *)
  for k = m - 1 downto 0 do
    let acc = ref y.(k) in
    let ti = c.li.(k) and tv = c.lv.(k) in
    for e = 0 to Array.length ti - 1 do
      acc := !acc -. (FA.unsafe_get tv e *. y.(Array.unsafe_get ti e))
    done;
    y.(k) <- !acc
  done;
  for k = 0 to m - 1 do
    x.(c.prow.(k)) <- y.(k)
  done;
  count_solve c_btran c_btran_nnz x m

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
  { m = f.f_core.cm; core = f.f_core; etas; neta = n; enz;
    ws = Array.make f.f_core.cm 0. }

(* ------------------------------------------------------------------ *)
(* Factorization                                                       *)
(* ------------------------------------------------------------------ *)

exception Singular

(* Entries smaller than this after an elimination update are treated as
   structural zeros (they are cancellation noise at the magnitudes these
   flow/implication matrices carry; the conditioning probe below guards
   the aggregate effect). *)
let drop_tol = 1e-13

(* Pack an (index, value) association list into parallel unboxed
   buffers, preserving list order. *)
let pack_pairs pairs =
  let n = List.length pairs in
  let idx = Array.make n 0 in
  let vals = FA.create n in
  List.iteri
    (fun k (i, v) ->
      idx.(k) <- i;
      FA.set vals k v)
    pairs;
  (idx, vals)

let factorize ~m col =
  if m = 0 then
    Some
      { m = 0;
        core = { cm = 0; prow = [||]; pcol = [||]; li = [||]; lv = [||];
                 ui = [||]; uv = [||]; udiag = FA.create 0; cnnz = 0 };
        etas = [||]; neta = 0; enz = 0; ws = [||] }
  else begin
    let acc = Array.make m 0. in
    let mark = Array.make m (-1) in
    (* Assemble deduplicated columns (constraint columns may repeat a
       row; the matrix FTRAN must invert sums them). *)
    let cols = Array.make m [||] in
    (try
       for c = 0 to m - 1 do
         let touched = ref [] in
         Array.iter
           (fun (r, a) ->
             if r < 0 || r >= m then raise Singular;
             if mark.(r) <> c then begin
               mark.(r) <- c;
               acc.(r) <- a;
               touched := r :: !touched
             end
             else acc.(r) <- acc.(r) +. a)
           (col c);
         let live = List.filter (fun r -> acc.(r) <> 0.) !touched in
         cols.(c) <- Array.of_list (List.rev_map (fun r -> (r, acc.(r))) live)
       done;
       let colent = Array.copy cols in
       let rowcols = Array.make m [] in
       let rcount = Array.make m 0 in
       let ccount = Array.make m 0 in
       let coldone = Array.make m false in
       for c = 0 to m - 1 do
         ccount.(c) <- Array.length colent.(c);
         Array.iter
           (fun (r, _) ->
             rcount.(r) <- rcount.(r) + 1;
             rowcols.(r) <- c :: rowcols.(r))
           colent.(c)
       done;
       (* Candidate columns for a zero-score pivot (a column singleton,
          or an entry alone in its row), as a min-heap of column indices
          with lazy deletion.  Invariant: every active column that holds
          an eligible zero-score entry is in the heap.  Such an entry can
          only appear when its column is rewritten (pushed below) or
          when one of its rows drops to a count of 1 (its columns are
          pushed by [dec_row]); the heap may also hold columns that no
          longer qualify, which are discarded when they reach the top.
          The heap lives in [mark], dead once the columns are assembled,
          and the membership flags in a byte string, so the search adds
          no m-word array to the major heap.  [Pqueue] would allocate a
          boxed entry per push and an option per pop on this hot path. *)
       let heap = mark and hn = ref m in
       for c = 0 to m - 1 do
         heap.(c) <- c
       done;
       let inheap = Bytes.make m '\001' in
       let push c =
         if Bytes.get inheap c = '\000' then begin
           Bytes.set inheap c '\001';
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
         Bytes.set inheap top '\000';
         decr hn;
         let n = !hn in
         if n > 0 then begin
           let x = heap.(n) in
           let i = ref 0 and sifting = ref true in
           while !sifting do
             let l = (2 * !i) + 1 in
             if l >= n then sifting := false
             else begin
               let s = if l + 1 < n && heap.(l + 1) < heap.(l) then l + 1 else l in
               if heap.(s) < x then begin
                 heap.(!i) <- heap.(s);
                 i := s
               end
               else sifting := false
             end
           done;
           heap.(!i) <- x
         end;
         top
       in
       let rec push_active = function
         | [] -> ()
         | c :: tl ->
             if not coldone.(c) then push c;
             push_active tl
       in
       (* Row counts only fall here; a row whose count reaches 1 may
          have made its last column eligible.  A rewritten column adds
          its new entries to the counts before removing its old ones, so
          a row it keeps never passes through 1 on the way. *)
       let dec_row r =
         let n = rcount.(r) - 1 in
         rcount.(r) <- n;
         if n = 1 then push_active rowcols.(r)
       in
       (* The entry of column [c] that the full scan below would pick if
          [c] were the first column it reached with a zero score: among
          entries passing the threshold with (ccount-1)(rcount-1) = 0,
          the largest |a|, the first in entry order on ties.  -1 when
          there is none. *)
       let zero_score_entry c =
         let entries = colent.(c) in
         let cmax = ref 0. in
         for e = 0 to Array.length entries - 1 do
           let _, a = Array.unsafe_get entries e in
           let aa = Float.abs a in
           if aa > !cmax then cmax := aa
         done;
         let best = ref (-1) and babs = ref 0. in
         if !cmax > 1e-11 then begin
           let thresh = 0.1 *. !cmax in
           let cc = ccount.(c) in
           for e = 0 to Array.length entries - 1 do
             let r, a = Array.unsafe_get entries e in
             let aa = Float.abs a in
             if aa >= thresh && (cc - 1) * (rcount.(r) - 1) = 0 && (!best < 0 || aa > !babs)
             then begin
               best := e;
               babs := aa
             end
           done
         end;
         !best
       in
       let prow = Array.make m 0 and pcol = Array.make m 0 in
       let udiag = FA.create m in
       let lraw = Array.make m [||] in
       (* (row, multiplier) *)
       let uraw = Array.make m [||] in
       (* (position, value) *)
       let seen = Array.make m (-1) in
       let amark = Array.make m (-1) in
       let stamp = ref (-1) in
       for step = 0 to m - 1 do
         (* Markowitz search under threshold pivoting: minimize the fill
            estimate (ccount-1)(rcount-1) over entries carrying at least
            a tenth of their column's largest active magnitude, ties to
            the larger |a|, then to scan order.  A zero score cannot be
            beaten, so the scan stops at the first column showing one;
            the heap hands over that same column directly. *)
         let bc = ref (-1) and br = ref (-1) and ba = ref 0. in
         let bscore = ref max_int in
         let exception Done in
         (* Explicit [for] loops: an [Array.iter] closure capturing float
            refs is allocated per column per step and boxes every
            accumulator store — this scan dominated factorization
            allocation. *)
         (try
            while !hn > 0 do
              let c = pop () in
              if not coldone.(c) then begin
                let e = zero_score_entry c in
                if e >= 0 then begin
                  let r, a = colent.(c).(e) in
                  bc := c;
                  br := r;
                  ba := a;
                  raise Done
                end
              end
            done;
            (* No zero-score pivot left: scan every active column. *)
            for c = 0 to m - 1 do
              if not coldone.(c) then begin
                let entries = colent.(c) in
                let cmax = ref 0. in
                for e = 0 to Array.length entries - 1 do
                  let _, a = Array.unsafe_get entries e in
                  let aa = Float.abs a in
                  if aa > !cmax then cmax := aa
                done;
                if !cmax > 1e-11 then begin
                  let thresh = 0.1 *. !cmax in
                  let cc = ccount.(c) in
                  for e = 0 to Array.length entries - 1 do
                    let r, a = Array.unsafe_get entries e in
                    let aa = Float.abs a in
                    if aa >= thresh then begin
                      let score = (cc - 1) * (rcount.(r) - 1) in
                      if score < !bscore || (score = !bscore && aa > Float.abs !ba)
                      then begin
                        bscore := score;
                        bc := c;
                        br := r;
                        ba := a
                      end
                    end
                  done;
                  if !bscore = 0 then raise Done
                end
              end
            done
          with Done -> ());
         if !bc < 0 then raise Singular;
         let pc = !bc and pr = !br and pa = !ba in
         prow.(step) <- pr;
         pcol.(step) <- pc;
         FA.set udiag step pa;
         (* L multipliers: the pivot column's other active entries. *)
         let pivcol = colent.(pc) in
         let npiv = Array.length pivcol in
         let lcnt = ref 0 in
         for e = 0 to npiv - 1 do
           let r, _ = Array.unsafe_get pivcol e in
           if r <> pr then incr lcnt
         done;
         let lents = Array.make !lcnt (0, 0.) in
         let k = ref 0 in
         for e = 0 to npiv - 1 do
           let r, a = Array.unsafe_get pivcol e in
           if r <> pr then begin
             lents.(!k) <- (r, a /. pa);
             incr k
           end
         done;
         lraw.(step) <- lents;
         for e = 0 to npiv - 1 do
           let r, _ = Array.unsafe_get pivcol e in
           dec_row r
         done;
         colent.(pc) <- [||];
         ccount.(pc) <- 0;
         coldone.(pc) <- true;
         (* Eliminate the pivot row out of every active column carrying
            it.  [rowcols] is a superset hint (stale entries just miss on
            the scan); each touched column is rewritten through a dense
            accumulator so fill-in lands in one pass. *)
         let uacc = ref [] in
         List.iter
           (fun c ->
             if (not coldone.(c)) && seen.(c) <> step then begin
               seen.(c) <- step;
               let entries = colent.(c) in
               let nent = Array.length entries in
               let upc = ref 0. and hit = ref false in
               for e = 0 to nent - 1 do
                 let r, a = Array.unsafe_get entries e in
                 if r = pr then begin
                   upc := !upc +. a;
                   hit := true
                 end
               done;
               if !hit then begin
                 let u = !upc in
                 uacc := (c, u) :: !uacc;
                 incr stamp;
                 let st = !stamp in
                 let touched = ref [] in
                 for e = 0 to nent - 1 do
                   let r, a = Array.unsafe_get entries e in
                   if r <> pr then begin
                     amark.(r) <- st;
                     acc.(r) <- a;
                     touched := r :: !touched
                   end
                 done;
                 for e = 0 to Array.length lents - 1 do
                   let lr, mult = Array.unsafe_get lents e in
                   let delta = mult *. u in
                   if amark.(lr) = st then acc.(lr) <- acc.(lr) -. delta
                   else begin
                     amark.(lr) <- st;
                     acc.(lr) <- -.delta;
                     touched := lr :: !touched;
                     rowcols.(lr) <- c :: rowcols.(lr)
                   end
                 done;
                 let keep = List.filter (fun r -> Float.abs acc.(r) > drop_tol) !touched in
                 let arr = Array.of_list (List.rev_map (fun r -> (r, acc.(r))) keep) in
                 for e = 0 to Array.length arr - 1 do
                   let r, _ = Array.unsafe_get arr e in
                   rcount.(r) <- rcount.(r) + 1
                 done;
                 for e = 0 to nent - 1 do
                   let r, _ = Array.unsafe_get entries e in
                   dec_row r
                 done;
                 colent.(c) <- arr;
                 ccount.(c) <- Array.length arr;
                 push c
               end
             end)
           rowcols.(pr);
         uraw.(step) <- Array.of_list !uacc;
         rowcols.(pr) <- []
       done;
       (* Re-index rows/positions to steps and pack into the unboxed
          parallel buffers, preserving entry order. *)
       let rstep = Array.make m 0 and posstep = Array.make m 0 in
       for k = 0 to m - 1 do
         rstep.(prow.(k)) <- k;
         posstep.(pcol.(k)) <- k
       done;
       let li = Array.make m [||] and lv = Array.make m (FA.create 0) in
       let ui = Array.make m [||] and uv = Array.make m (FA.create 0) in
       let cnnz = ref m in
       for k = 0 to m - 1 do
         let ents = lraw.(k) in
         let n = Array.length ents in
         let idx = Array.make n 0 and vals = FA.create n in
         for e = 0 to n - 1 do
           let r, v = ents.(e) in
           idx.(e) <- rstep.(r);
           FA.set vals e v
         done;
         li.(k) <- idx;
         lv.(k) <- vals;
         let ents = uraw.(k) in
         let n = Array.length ents in
         let idx = Array.make n 0 and vals = FA.create n in
         for e = 0 to n - 1 do
           let c, v = ents.(e) in
           idx.(e) <- posstep.(c);
           FA.set vals e v
         done;
         ui.(k) <- idx;
         uv.(k) <- vals;
         cnnz := !cnnz + Array.length li.(k) + Array.length ui.(k)
       done;
       let core = { cm = m; prow; pcol; li; lv; ui; uv; udiag; cnnz = !cnnz } in
       let t = { m; core; etas = [||]; neta = 0; enz = 0; ws = Array.make m 0. } in
       (* Conditioning probe: a factorization
          whose solve cannot reproduce B·(B⁻¹·1) = 1 to a relative 1e-8
          would silently corrupt basic values downstream; reject it so
          callers fall back to a cold start. *)
       let x = Array.make m 1. in
       ftran t x;
       let z = Array.make m 0. in
       let xmax = ref 1. in
       for c = 0 to m - 1 do
         let xc = x.(c) in
         if xc <> 0. then Array.iter (fun (r, a) -> z.(r) <- z.(r) +. (a *. xc)) cols.(c);
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
     with Singular -> None)
  end

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
    let ui = Array.init m' (fun i -> if i < m then c.ui.(i) else [||]) in
    let uv = Array.init m' (fun i -> if i < m then c.uv.(i) else FA.create 0) in
    (* Extra L entries per old step, targeting the new trivial steps:
       the grown matrix is [[B 0] [V I]] = [[L 0] [W I]]·[[U 0] [0 I]]
       with W U = V·E⁻¹ (V pushed through the eta file first, since the
       etas post-multiply the core).  New steps never feed old ones, so
       every old-step solve value is preserved bit-for-bit. *)
    let ext = Array.make (max m 1) [] in
    let extnnz = ref 0 in
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
        if wj <> 0. then begin
          let ti = c.ui.(j) and tv = c.uv.(j) in
          for e = 0 to Array.length ti - 1 do
            vh.(ti.(e)) <- vh.(ti.(e)) -. (wj *. FA.get tv e)
          done
        end
      done;
      for j = 0 to m - 1 do
        if vh.(j) <> 0. then begin
          ext.(j) <- (m + t0, vh.(j)) :: ext.(j);
          incr extnnz
        end
      done
    done;
    let li = Array.make m' [||] and lv = Array.make m' (FA.create 0) in
    for j = 0 to m' - 1 do
      if j >= m then ()
      else
        match ext.(j) with
        | [] ->
            li.(j) <- c.li.(j);
            lv.(j) <- c.lv.(j)
        | l ->
            let old_i = c.li.(j) and old_v = c.lv.(j) in
            let n0 = Array.length old_i in
            let add_i, add_v = pack_pairs (List.rev l) in
            let n1 = Array.length add_i in
            let idx = Array.make (n0 + n1) 0 in
            let vals = FA.create (n0 + n1) in
            Array.blit old_i 0 idx 0 n0;
            FA.blit old_v 0 vals 0 n0;
            Array.blit add_i 0 idx n0 n1;
            FA.blit add_v 0 vals n0 n1;
            li.(j) <- idx;
            lv.(j) <- vals
    done;
    { f_core =
        { cm = m'; prow; pcol; li; lv; ui; uv; udiag; cnnz = c.cnnz + kext + !extnnz };
      f_etas = f.f_etas }
  end
