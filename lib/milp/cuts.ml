type origin = Gomory | Cover | Clique | Power

type cut = {
  c_row : (int * float) array;
  c_rhs : float;
  c_origin : origin;
}

(* ------------------------------------------------------------------ *)
(* Cut families (the ablation axis)                                    *)
(* ------------------------------------------------------------------ *)

type family = F_gmi | F_cover | F_clique | F_power

let all_families = [ F_gmi; F_cover; F_clique; F_power ]

let family_name = function
  | F_gmi -> "gmi"
  | F_cover -> "cover"
  | F_clique -> "clique"
  | F_power -> "power"

let family_of_string = function
  | "gmi" -> Ok F_gmi
  | "cover" -> Ok F_cover
  | "clique" -> Ok F_clique
  | "power" -> Ok F_power
  | s ->
      Error (Printf.sprintf "unknown cut family %S (known: gmi, cover, clique, power)" s)

let families_of_string s =
  match String.trim s with
  | "" | "none" -> Ok []
  | "all" -> Ok all_families
  | s ->
      let parts =
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun p -> p <> "")
      in
      List.fold_left
        (fun acc p ->
          match (acc, family_of_string p) with
          | Error e, _ -> Error e
          | _, Error e -> Error e
          | Ok fs, Ok f -> Ok (if List.mem f fs then fs else fs @ [ f ]))
        (Ok []) parts

let families_to_string = function
  | [] -> "none"
  | fs -> String.concat "," (List.map family_name fs)

let family_of_origin = function
  | Gomory -> F_gmi
  | Cover -> F_cover
  | Clique -> F_clique
  | Power -> F_power

type separator = float array -> cut list

let dot_x row x =
  Array.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0. row

let violation c x = dot_x c.c_row x -. c.c_rhs

let satisfied ?(tol = 1e-6) c x = violation c x <= tol

(* Scale a ≤-row to unit L2 norm so violations are geometric distances
   and pool scoring is scale-free. *)
let normalize row rhs origin =
  let nrm = sqrt (Array.fold_left (fun acc (_, a) -> acc +. (a *. a)) 0. row) in
  if nrm < 1e-12 then None
  else begin
    let row = Array.map (fun (j, a) -> (j, a /. nrm)) row in
    Array.sort (fun (a, _) (b, _) -> compare a b) row;
    Some { c_row = row; c_rhs = rhs /. nrm; c_origin = origin }
  end

let make = normalize

(* ------------------------------------------------------------------ *)
(* Gomory mixed-integer cuts                                           *)
(* ------------------------------------------------------------------ *)

let frac v = v -. Float.floor v

(* Minimum distance of the basic value from integrality for a row to be
   worth cutting; also keeps 1/(1-f0) bounded. *)
let gmi_away = 0.005

let is_integral v = Float.is_finite v && Float.abs (v -. Float.round v) <= 1e-9

(* Derive the GMI cut of tableau row [i].  Works in the shifted space
   x'_j >= 0 (nonbasics moved to their status bound), applies the
   mixed-integer rounding coefficients, then substitutes structurals and
   slacks back so the cut is purely over structural variables.  Returns
   a ≥-violated ≤-cut, or None when a numerical guard trips. *)
let gmi_from_row (p : Simplex.problem) (t : Simplex.tableau) ~integer i =
  let n = t.Simplex.t_ncols in
  let f0 = frac t.Simplex.t_xb.(i) in
  let ratio = f0 /. (1. -. f0) in
  let row = t.Simplex.t_row i in
  (* Accumulated ≥-cut over structural variables: coef·x >= rhs. *)
  let coef = Array.make n 0. in
  let touched = ref [] in
  let add j v =
    if coef.(j) = 0. && v <> 0. then touched := j :: !touched;
    coef.(j) <- coef.(j) +. v
  in
  let rhs = ref f0 in
  let ok = ref true in
  Array.iter
    (fun (j, alpha) ->
      if !ok then
        match t.Simplex.t_stat.(j) with
        | Basis.Basic -> ()
        | Basis.Free_zero ->
            (* A free nonbasic has no sign for x'; the row is unusable. *)
            ok := false
        | (Basis.At_lower | Basis.At_upper) as stat ->
            let at_lower = stat = Basis.At_lower in
            let alpha' = if at_lower then alpha else -.alpha in
            let bound = if at_lower then t.Simplex.t_lb.(j) else t.Simplex.t_ub.(j) in
            (* x'_j = x_j - lb (at lower) or ub - x_j (at upper) is
               integer-valued only when the active bound is integral. *)
            let int_col = j < n && integer.(j) && is_integral bound in
            let gamma =
              if int_col then begin
                let fj = frac alpha' in
                if fj <= f0 +. 1e-12 then fj else ratio *. (1. -. fj)
              end
              else if alpha' >= 0. then alpha'
              else ratio *. -.alpha'
            in
            if gamma > 1e-12 then begin
              if j < n then
                if at_lower then begin
                  add j gamma;
                  rhs := !rhs +. (gamma *. bound)
                end
                else begin
                  add j (-.gamma);
                  rhs := !rhs -. (gamma *. bound)
                end
              else begin
                (* Slack of row r: substitute its defining row.  Le
                   slack sits at its lower bound 0 (x' = rhs_r - a·x);
                   Ge slack at its upper bound 0 (x' = a·x - rhs_r). *)
                let r = j - n in
                if r >= Array.length p.Simplex.rows then ok := false
                else begin
                  let s = if at_lower then -.gamma else gamma in
                  Array.iter (fun (jj, a) -> add jj (s *. a)) p.Simplex.rows.(r);
                  rhs := !rhs +. (s *. p.Simplex.rhs.(r))
                end
              end
            end)
    row;
  if not !ok then None
  else begin
    (* Flip to ≤ form and apply hygiene: drop near-zero coefficients by
       relaxing the rhs with their worst-case bound contribution (sound;
       unbounded columns keep their term), then bound the dynamic
       range. *)
    let items = ref [] in
    let le_rhs = ref (-. !rhs) in
    let amax = ref 0. and amin = ref infinity in
    (* [touched] can list a variable twice when substitutions cancel its
       coefficient to exactly zero and a later term re-adds it (common
       with cover-cut rows, whose entries share one magnitude); a
       duplicate would double the emitted coefficient. *)
    let touched = List.sort_uniq compare !touched in
    List.iter
      (fun j ->
        let c = -.coef.(j) in
        (* ≤-coefficient *)
        let a = Float.abs c in
        if a > 1e-10 then begin
          items := (j, c) :: !items;
          if a > !amax then amax := a;
          if a < !amin then amin := a
        end
        else if a > 0. then begin
          (* Relax: c·x_j >= min over the box, moved to the rhs. *)
          let worst = Float.min (c *. t.Simplex.t_lb.(j)) (c *. t.Simplex.t_ub.(j)) in
          if Float.is_finite worst then le_rhs := !le_rhs -. worst else ok := false
        end)
      touched;
    if (not !ok) || !items = [] || !amax /. !amin > 1e7 then None
    else normalize (Array.of_list !items) !le_rhs Gomory
  end

let gomory p ~integer ~lb ~ub basis ~max_cuts =
  match Simplex.tableau p ~lb ~ub basis with
  | None -> []
  | Some t ->
      let n = t.Simplex.t_ncols in
      let cands = ref [] in
      for i = 0 to t.Simplex.t_nrows - 1 do
        let k = t.Simplex.t_basic.(i) in
        if k < n && integer.(k) && t.Simplex.t_lb.(k) < t.Simplex.t_ub.(k) then begin
          let f = frac t.Simplex.t_xb.(i) in
          let dist = Float.min f (1. -. f) in
          if dist > gmi_away then cands := (dist, i) :: !cands
        end
      done;
      let cands =
        List.sort (fun (a, _) (b, _) -> compare (b : float) a) !cands
      in
      let rec take k acc = function
        | [] -> acc
        | _ when k <= 0 -> acc
        | (_, i) :: rest -> (
            match gmi_from_row p t ~integer i with
            | Some c -> take (k - 1) (c :: acc) rest
            | None -> take k acc rest)
      in
      take max_cuts [] cands

(* ------------------------------------------------------------------ *)
(* Knapsack cover cuts                                                 *)
(* ------------------------------------------------------------------ *)

(* Greedy separation on [sum a_j y_j <= b], a_j > 0, y binary with LP
   values [ystar]: pick a cover preferring variables close to 1,
   minimalize it, extend it with every at-least-as-heavy variable. *)
let separate_cover items b ystar =
  let arr = Array.of_list items in
  let na = Array.length arr in
  let order = Array.init na (fun i -> i) in
  Array.sort (fun i j -> compare (1. -. ystar.(i)) (1. -. ystar.(j))) order;
  let total = ref 0. in
  let chosen = ref [] in
  (try
     Array.iter
       (fun idx ->
         let (_, a, _) = arr.(idx) in
         total := !total +. a;
         chosen := idx :: !chosen;
         if !total > b +. 1e-9 then raise Exit)
       order
   with Exit -> ());
  if !total <= b +. 1e-9 then None
  else begin
    (* Minimalize: drop members (least attractive first — they were
       added last) while the remainder still overflows. *)
    let keep =
      List.filter
        (fun idx ->
          let (_, a, _) = arr.(idx) in
          if !total -. a > b +. 1e-9 then begin
            total := !total -. a;
            false
          end
          else true)
        !chosen
    in
    let csize = List.length keep in
    let amax =
      List.fold_left (fun acc idx -> let (_, a, _) = arr.(idx) in Float.max acc a) 0. keep
    in
    let in_cover = Array.make na false in
    List.iter (fun idx -> in_cover.(idx) <- true) keep;
    let ext = ref keep in
    for idx = 0 to na - 1 do
      let (_, a, _) = arr.(idx) in
      if (not in_cover.(idx)) && a >= amax -. 1e-12 then ext := idx :: !ext
    done;
    let lhs = List.fold_left (fun acc idx -> acc +. ystar.(idx)) 0. !ext in
    let viol = lhs -. float_of_int (csize - 1) in
    if viol <= 1e-4 then None else Some (!ext, csize, viol)
  end

let covers p ~nrows ~integer ~lb ~ub ~x ~max_cuts =
  let out = ref [] in
  for i = 0 to nrows - 1 do
    let sense = p.Simplex.senses.(i) in
    if sense <> Model.Eq then begin
      let sgn = match sense with Model.Le -> 1.0 | Model.Ge -> -1.0 | Model.Eq -> 0. in
      let b = ref (sgn *. p.Simplex.rhs.(i)) in
      let items = ref [] and ok = ref true in
      Array.iter
        (fun (j, a0) ->
          if !ok then begin
            let a = sgn *. a0 in
            if lb.(j) >= ub.(j) -. 1e-9 then b := !b -. (a *. lb.(j))
            else if integer.(j) && lb.(j) >= -1e-9 && ub.(j) <= 1. +. 1e-9 then begin
              if a > 1e-9 then items := (j, a, false) :: !items
              else if a < -1e-9 then begin
                (* Complement: a·x = a - (-a)·(1-x). *)
                items := (j, -.a, true) :: !items;
                b := !b -. a
              end
              else b := !b +. Float.abs a (* noise coefficient: relax *)
            end
            else ok := false (* non-binary support: not a knapsack row *)
          end)
        p.Simplex.rows.(i);
      if !ok && List.length !items >= 2 && !b >= 0. then begin
        let arr = Array.of_list !items in
        let ystar =
          Array.map
            (fun (j, _, comp) ->
              let v = if comp then 1. -. x.(j) else x.(j) in
              Float.max 0. (Float.min 1. v))
            arr
        in
        match separate_cover !items !b ystar with
        | None -> ()
        | Some (ext, csize, viol) ->
            let ncomp = ref 0 in
            let row =
              List.map
                (fun idx ->
                  let (j, _, comp) = arr.(idx) in
                  if comp then begin
                    incr ncomp;
                    (j, -1.0)
                  end
                  else (j, 1.0))
                ext
            in
            let rhs = float_of_int (csize - 1 - !ncomp) in
            (match normalize (Array.of_list row) rhs Cover with
            | Some c -> out := (viol, c) :: !out
            | None -> ())
      end
    end
  done;
  !out
  |> List.sort (fun (a, _) (b, _) -> compare (b : float) a)
  |> List.filteri (fun i _ -> i < max_cuts)
  |> List.map snd

(* ------------------------------------------------------------------ *)
(* Clique cuts from the conflict table                                 *)
(* ------------------------------------------------------------------ *)

let cliques (tbl : Conflicts.t) ~x ~max_cuts =
  let nx = Array.length x in
  let xv j = if j < nx then x.(j) else 0. in
  (* Seed greedy extension from the highest-value conflict vertices;
     low-value vertices cannot start a violated clique. *)
  let seeds =
    Conflicts.vertices tbl
    |> List.filter (fun j -> xv j > 0.05)
    |> List.sort (fun a b -> compare (xv b) (xv a))
    |> List.filteri (fun i _ -> i < Int.max 8 (4 * max_cuts))
  in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun v ->
      let cand =
        Conflicts.neighbors tbl v
        |> List.sort (fun a b -> compare (xv b) (xv a))
      in
      let q = ref [ v ] in
      List.iter
        (fun u ->
          if u <> v && List.for_all (Conflicts.conflict tbl u) !q then
            q := u :: !q)
        cand;
      let members = List.sort_uniq compare !q in
      if List.length members >= 2 then begin
        let key = String.concat "," (List.map string_of_int members) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          let lhs = List.fold_left (fun acc j -> acc +. xv j) 0. members in
          if lhs > 1. +. 1e-4 then begin
            let row = Array.of_list (List.map (fun j -> (j, 1.0)) members) in
            match normalize row 1.0 Clique with
            | Some c -> out := (lhs -. 1., c) :: !out
            | None -> ()
          end
        end
      end)
    seeds;
  !out
  |> List.sort (fun (a, _) (b, _) -> compare (b : float) a)
  |> List.filteri (fun i _ -> i < max_cuts)
  |> List.map snd

(* ------------------------------------------------------------------ *)
(* Cut pool                                                            *)
(* ------------------------------------------------------------------ *)

type entry = { e_cut : cut; mutable e_age : int }

type pool = {
  mutable members : entry list;
  mutable separated : int;
  mutable applied : int;
  max_age : int;
  max_size : int;
}

let create_pool ?(max_age = 5) ?(max_size = 500) () =
  { members = []; separated = 0; applied = 0; max_age; max_size }

(* Cosine of two unit-norm sparse rows (both sorted by variable). *)
let cosine a b =
  let la = Array.length a and lb = Array.length b in
  let acc = ref 0. and ia = ref 0 and ib = ref 0 in
  while !ia < la && !ib < lb do
    let (ja, ca) = a.(!ia) and (jb, cb) = b.(!ib) in
    if ja = jb then begin
      acc := !acc +. (ca *. cb);
      incr ia;
      incr ib
    end
    else if ja < jb then incr ia
    else incr ib
  done;
  !acc

let add pool c =
  let parallel = ref None in
  let dup = ref false in
  List.iter
    (fun e ->
      if not !dup then
        let cos = cosine c.c_row e.e_cut.c_row in
        if cos > 0.999 then
          if e.e_cut.c_rhs <= c.c_rhs +. 1e-9 then dup := true
          else parallel := Some e)
    pool.members;
  if !dup then false
  else begin
    (match !parallel with
    | Some e ->
        (* The pooled near-parallel row is strictly weaker: replace. *)
        pool.members <- List.filter (fun e' -> e' != e) pool.members
    | None -> ());
    pool.members <- { e_cut = c; e_age = 0 } :: pool.members;
    pool.separated <- pool.separated + 1;
    true
  end

(* Origin-fair take: round-robin across the origins present (each
   origin's queue ordered by violation) until [max_cuts] are drawn.  A
   prolific family — GMI typically separates several highly violated
   rows per round — would otherwise crowd every other family out of the
   applied-cuts cap, which is exactly wrong when a sparser family (the
   structural energy cuts, say) is the one that moves the bound. *)
let fair_take violated max_cuts =
  let queues : (origin * (float * entry) Queue.t) list ref = ref [] in
  List.iter
    (fun ((_, e) as s) ->
      let o = e.e_cut.c_origin in
      match List.assq_opt o !queues with
      | Some q -> Queue.add s q
      | None ->
          let q = Queue.create () in
          Queue.add s q;
          queues := !queues @ [ (o, q) ])
    violated;
  let taken = ref [] in
  let progressed = ref true in
  while List.length !taken < max_cuts && !progressed do
    progressed := false;
    List.iter
      (fun (_, q) ->
        if List.length !taken < max_cuts && not (Queue.is_empty q) then begin
          taken := Queue.pop q :: !taken;
          progressed := true
        end)
      !queues
  done;
  let rest =
    List.concat_map (fun (_, q) -> List.of_seq (Queue.to_seq q)) !queues
  in
  (List.rev !taken, rest)

let select pool ~x ~max_cuts ~min_violation =
  let scored = List.map (fun e -> (violation e.e_cut x, e)) pool.members in
  let violated, rest = List.partition (fun (v, _) -> v > min_violation) scored in
  let violated = List.sort (fun (a, _) (b, _) -> compare (b : float) a) violated in
  let taken, kept_violated = fair_take violated max_cuts in
  List.iter (fun (_, e) -> e.e_age <- 0) kept_violated;
  let fresh =
    List.filter
      (fun (_, e) ->
        e.e_age <- e.e_age + 1;
        e.e_age <= pool.max_age)
      rest
  in
  pool.applied <- pool.applied + List.length taken;
  let remaining = List.map snd (kept_violated @ fresh) in
  (* Size cap: drop the least violated overflow. *)
  let remaining =
    if List.length remaining <= pool.max_size then remaining
    else begin
      let sorted =
        List.sort
          (fun a b -> compare (violation b.e_cut x) (violation a.e_cut x))
          remaining
      in
      List.filteri (fun i _ -> i < pool.max_size) sorted
    end
  in
  pool.members <- remaining;
  List.map (fun (_, e) -> e.e_cut) taken

let stats pool = (pool.separated, pool.applied)

let members pool = List.map (fun e -> e.e_cut) pool.members

(* ------------------------------------------------------------------ *)
(* Re-certification of carried cover cuts                              *)
(* ------------------------------------------------------------------ *)

(* A literal-form cut reads  sum_l y_l <= d  with  y_l = x_j (positive
   coefficient) or 1 - x_j (negative, complemented) — covers, cliques
   and the structural power cuts are all of this shape.
   Recover (literals, d) from the normalized stored form: coefficients
   must share one magnitude s, and rhs/s + #complements must be a
   nonnegative integer.  Gomory cuts are excluded: their coefficients
   are basis-specific reals, not literals. *)
let cover_literals c =
  let nlits = Array.length c.c_row in
  if c.c_origin = Gomory || nlits = 0 then None
  else begin
    let s = Float.abs (snd c.c_row.(0)) in
    if s < 1e-12 then None
    else if
      not
        (Array.for_all
           (fun (_, a) -> Float.abs (Float.abs a -. s) <= 1e-7 *. s)
           c.c_row)
    then None
    else begin
      let ncomp =
        Array.fold_left (fun n (_, a) -> if a < 0. then n + 1 else n) 0 c.c_row
      in
      let d_f = (c.c_rhs /. s) +. float_of_int ncomp in
      let d = Float.round d_f in
      if Float.abs (d_f -. d) > 1e-6 || d < 0. then None
      else Some (Array.map (fun (j, a) -> (j, a > 0.)) c.c_row, int_of_float d)
    end
  end

(* Does row [i] of [p], read as a ≤-row with sign [sgn], prove the cover?
   Map each cut literal onto its row term when the orientation matches
   (weight |a|, complemented terms shift the rhs); relax every other row
   term over the variable box.  The resulting valid inequality
   [sum_l w_l y_l <= b] forbids more than [d] literals at 1 whenever the
   [d+1] smallest weights already overflow [b]. *)
let cover_holds_on_row p ~lb ~ub lits d i sgn =
  let nlits = Array.length lits in
  let b = ref (sgn *. p.Simplex.rhs.(i)) in
  let w = Array.make nlits 0. in
  let lit_index j =
    let rec go l = if l >= nlits then None
      else if fst lits.(l) = j then Some l else go (l + 1)
    in
    go 0
  in
  let ok = ref true in
  Array.iter
    (fun (j, a0) ->
      if !ok then begin
        let a = sgn *. a0 in
        let matched =
          match lit_index j with
          | Some l when a <> 0. && (a > 0.) = snd lits.(l) ->
              w.(l) <- Float.abs a;
              if a < 0. then b := !b +. Float.abs a;
              true
          | _ -> false
        in
        if not matched then begin
          let worst = Float.min (a *. lb.(j)) (a *. ub.(j)) in
          if Float.is_finite worst then b := !b -. worst else ok := false
        end
      end)
    p.Simplex.rows.(i);
  !ok
  && begin
       Array.sort compare w;
       let s = ref 0. in
       for k = 0 to d do
         s := !s +. w.(k)
       done;
       !s > !b +. 1e-7
     end

let lit_index_mem lits j = Array.exists (fun (j', _) -> j' = j) lits

let certify_cover (p : Simplex.problem) ~nrows ~integer ~lb ~ub c =
  match cover_literals c with
  | None -> false
  | Some (lits, d) ->
      let binary j =
        j < Array.length lb
        && integer.(j)
        && lb.(j) >= -1e-9
        && ub.(j) <= 1. +. 1e-9
      in
      Array.for_all (fun (j, _) -> binary j) lits
      && begin
           if d >= Array.length lits then true
             (* at most |L|-of-|L| literals: implied by the binary box *)
           else begin
             let touches i =
               Array.exists (fun (j, _) -> lit_index_mem lits j) p.Simplex.rows.(i)
             in
             let rec scan i =
               if i >= nrows then false
               else begin
                 let here =
                   touches i
                   && (match p.Simplex.senses.(i) with
                      | Model.Le -> cover_holds_on_row p ~lb ~ub lits d i 1.0
                      | Model.Ge -> cover_holds_on_row p ~lb ~ub lits d i (-1.0)
                      | Model.Eq ->
                          cover_holds_on_row p ~lb ~ub lits d i 1.0
                          || cover_holds_on_row p ~lb ~ub lits d i (-1.0))
                 in
                 here || scan (i + 1)
               end
             in
             scan 0
           end
         end

(* ------------------------------------------------------------------ *)
(* Mapping cuts through a presolve reduction                           *)
(* ------------------------------------------------------------------ *)

let lift (post : Postsolve.t) c =
  { c with c_row = Array.map (fun (j, a) -> (post.Postsolve.col_of_red.(j), a)) c.c_row }

let restrict (post : Postsolve.t) c =
  let terms = ref [] and rhs = ref c.c_rhs in
  let ok = ref true in
  Array.iter
    (fun (j, a) ->
      if !ok then
        match Postsolve.col_state post j with
        | Postsolve.Kept red -> terms := (red, a) :: !terms
        | Postsolve.Fixed f -> rhs := !rhs -. (a *. f.Postsolve.fx_value)
        | Postsolve.Substituted ->
            (* The substitution equation could in principle be folded in,
               but its terms live in original space and may themselves be
               eliminated; dropping the cut is always sound. *)
            ok := false)
    c.c_row;
  if not !ok then None
  else
    match !terms with
    | [] -> None
    | ts ->
        let row = Array.of_list (List.rev ts) in
        (* Renormalize: folding fixed columns changed the norm. *)
        normalize row !rhs c.c_origin
