(* All feasibility/rounding slacks derive from the caller's [tol] (the
   bound-improvement threshold):

     feas_slack = 100  * tol   row/domain infeasibility detection
     int_slack  = 1000 * tol   integer rounding + unit-width tests

   At the default [tol = 1e-9] these are the 1e-7 / 1e-6 constants the
   solver has always used; a caller loosening [tol] now loosens every
   derived check consistently instead of racing hard-coded slacks. *)
let feas_slack tol = 100. *. tol
let int_slack tol = 1000. *. tol

type outcome =
  | Feasible of {
      lb : float array;
      ub : float array;
      active : bool array;
      rounds : int;
    }
  | Proven_infeasible of string

module FA = Float.Array

(* Minimum and maximum activity of a row under the bounds, into [act];
   infinities propagate naturally through float arithmetic except for
   0 * inf, which cannot occur because stored coefficients are
   non-zero.  An all-float record is stored flat, so filling it boxes
   nothing; a returned tuple would allocate per row, per round, per
   node. *)
type act = { mutable amin : float; mutable amax : float }

let activity row lb ub act =
  let amin = ref 0. and amax = ref 0. in
  for k = 0 to Array.length row - 1 do
    let j, a = Array.unsafe_get row k in
    if a > 0. then begin
      amin := !amin +. (a *. lb.(j));
      amax := !amax +. (a *. ub.(j))
    end
    else begin
      amin := !amin +. (a *. ub.(j));
      amax := !amax +. (a *. lb.(j))
    end
  done;
  act.amin <- !amin;
  act.amax <- !amax

exception Infeasible of string

type flat = {
  f_start : int array;  (* row -> start of its terms; length m+1 *)
  f_var : int array;
  f_coef : floatarray;
  f_senses : Model.sense array;
  f_rhs : float array;
}

let flatten (p : Simplex.problem) =
  let rows = p.Simplex.rows in
  let m = Array.length rows in
  let start = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    start.(i + 1) <- start.(i) + Array.length rows.(i)
  done;
  let var = Array.make start.(m) 0 and coef = FA.create start.(m) in
  for i = 0 to m - 1 do
    Array.iteri
      (fun k (j, a) ->
        var.(start.(i) + k) <- j;
        FA.set coef (start.(i) + k) a)
      rows.(i)
  done;
  { f_start = start; f_var = var; f_coef = coef; f_senses = p.Simplex.senses;
    f_rhs = p.Simplex.rhs }

(* Change stamps of [run_flat], one scratch per domain, grown to the
   largest problem seen and never cleared: [clock] only rises, so a
   stamp left by an earlier call is never above a row's stamp from this
   one.  [busy] guards against a second systhread of the domain, which
   then works on a fresh scratch. *)
type stamps = {
  busy : bool Atomic.t;
  mutable clock : int;
  mutable vstamp : int array;  (* variable -> clock of its last bound change *)
  mutable rstamp : int array;  (* row -> clock when it was last evaluated *)
}

let new_stamps () = { busy = Atomic.make false; clock = 0; vstamp = [||]; rstamp = [||] }

let stamps_key = Domain.DLS.new_key new_stamps

let run_flat ?(max_rounds = 16) ?(tol = 1e-9) (fp : flat) ~integer ~lb ~ub =
  let feas = feas_slack tol and islack = int_slack tol in
  let m = Array.length fp.f_senses in
  let lb = Array.copy lb and ub = Array.copy ub in
  let active = Array.make m true in
  let st =
    let s = Domain.DLS.get stamps_key in
    if Atomic.compare_and_set s.busy false true then s else new_stamps ()
  in
  if Array.length st.vstamp < Array.length lb then
    st.vstamp <- Array.make (max (Array.length lb) (2 * Array.length st.vstamp)) 0;
  if Array.length st.rstamp < m then
    st.rstamp <- Array.make (max m (2 * Array.length st.rstamp)) 0;
  let vstamp = st.vstamp and rstamp = st.rstamp in
  let start = fp.f_start and var = fp.f_var and coef = fp.f_coef in
  let changed = ref true in
  let rounds = ref 0 in
  (* A bound of [j] was just tightened: round it inward if [j] is
     integer, stamp [j], and check that its domain is not empty. *)
  let tightened j =
    if integer.(j) then begin
      lb.(j) <- Float.ceil (lb.(j) -. islack);
      ub.(j) <- Float.floor (ub.(j) +. islack)
    end;
    st.clock <- st.clock + 1;
    vstamp.(j) <- st.clock;
    changed := true;
    if lb.(j) > ub.(j) +. feas then
      raise (Infeasible (Printf.sprintf "empty domain for variable %d" j))
  in
  (* A row's evaluation is a pure function of its variables' bounds:
     once no bound of the row has changed since the row was last
     evaluated (which then changed nothing, or the row's own changes
     would have stamped it), evaluating it again changes nothing. *)
  let unchanged i =
    let since = rstamp.(i) in
    let k = ref start.(i) and stop = start.(i + 1) in
    while !k < stop && vstamp.(Array.unsafe_get var !k) <= since do
      incr k
    done;
    !k = stop
  in
  (* Row evaluation, written out in the loop so that no float crosses a
     call (a float argument is boxed): activity, then redundancy and
     infeasibility, then propagation of  row <= rhs  from the row's
     minimum activity.  A Ge row propagates negated (s = -1, from the
     negated max activity), an Eq row in both directions, each from
     the activities computed before either direction ran. *)
  let propagate () =
    try
      while !changed && !rounds < max_rounds do
        changed := false;
        incr rounds;
        let first = !rounds = 1 in
        for i = 0 to m - 1 do
          if active.(i) && (first || not (unchanged i)) then begin
            rstamp.(i) <- st.clock;
            let rhs = fp.f_rhs.(i) in
            let amin = ref 0. and amax = ref 0. in
            for k = start.(i) to start.(i + 1) - 1 do
              let j = Array.unsafe_get var k and a = FA.unsafe_get coef k in
              if a > 0. then begin
                amin := !amin +. (a *. lb.(j));
                amax := !amax +. (a *. ub.(j))
              end
              else begin
                amin := !amin +. (a *. ub.(j));
                amax := !amax +. (a *. lb.(j))
              end
            done;
            let amin = !amin and amax = !amax in
            let sense = fp.f_senses.(i) in
            let redundant =
              match sense with
              | Model.Le ->
                  if amin > rhs +. feas then
                    raise (Infeasible (Printf.sprintf "row %d infeasible" i));
                  amax <= rhs +. tol
              | Model.Ge ->
                  if amax < rhs -. feas then
                    raise (Infeasible (Printf.sprintf "row %d infeasible" i));
                  amin >= rhs -. tol
              | Model.Eq ->
                  if amin > rhs +. feas || amax < rhs -. feas then
                    raise (Infeasible (Printf.sprintf "row %d infeasible" i));
                  amin >= rhs -. tol && amax <= rhs +. tol
            in
            if redundant then active.(i) <- false
            else
              for dir = (if sense = Model.Ge then 1 else 0) to (if sense = Model.Le then 0 else 1) do
                let neg = dir = 1 in
                let s = if neg then -1.0 else 1.0 in
                let rhs = if neg then -.rhs else rhs in
                let amin = if neg then -.amax else amin in
                if amin > rhs +. feas then
                  raise (Infeasible (Printf.sprintf "row %d cannot be satisfied" i));
                if Float.is_finite amin then
                  for k = start.(i) to start.(i + 1) - 1 do
                    let j = Array.unsafe_get var k in
                    let a = s *. FA.unsafe_get coef k in
                    let contrib = if a > 0. then a *. lb.(j) else a *. ub.(j) in
                    let rest = amin -. contrib in
                    if Float.is_finite rest then begin
                      let v = (rhs -. rest) /. a in
                      if a > 0. then begin
                        if v < ub.(j) -. tol then begin
                          ub.(j) <- v;
                          tightened j
                        end
                      end
                      else if v > lb.(j) +. tol then begin
                        lb.(j) <- v;
                        tightened j
                      end
                    end
                  done
              done
          end
        done
      done;
      Feasible { lb; ub; active; rounds = !rounds }
    with Infeasible why -> Proven_infeasible why
  in
  match propagate () with
  | r ->
      Atomic.set st.busy false;
      r
  | exception e ->
      Atomic.set st.busy false;
      raise e

let run ?max_rounds ?tol p ~integer ~lb ~ub = run_flat ?max_rounds ?tol (flatten p) ~integer ~lb ~ub

(* Coefficient strengthening on inequality rows, after Achterberg's rule
   (and GurobiPresolver's CoefficientStrengthening):  for  a x_j + rest
   <= b  with x_j integer on a finite box [l, u] of width >= 1, let
   d = b - max_activity + |a|.  When 0 < d < |a| the coefficient can be
   pulled toward zero —  a' = a - d, b' = b - d*u  for a > 0 (mirrored
   via b' = b + d*l for a < 0) — without excluding any integer point:
   at x_j = u the new row coincides with the old one, and for
   x_j = u - k (k >= 1) the new slack differs from the old by
   (k - 1)(d - |a|) <= 0, i.e. the new row is implied by the old one at
   every integer point below the top of the box while the LP relaxation
   only gets tighter.  (The classic statement is for unit boxes; the
   same algebra goes through for any integer width >= 1.)  >= rows are
   strengthened through negation; = rows are left alone. *)
let strengthen ?(tol = 1e-9) (p : Simplex.problem) ~integer ~lb ~ub =
  let islack = int_slack tol in
  let m = Array.length p.Simplex.rows in
  let rows = Array.copy p.Simplex.rows in
  let rhs = Array.copy p.Simplex.rhs in
  let changes = ref 0 in
  let int_box j =
    integer.(j)
    && Float.is_finite lb.(j)
    && Float.is_finite ub.(j)
    && ub.(j) -. lb.(j) >= 1. -. islack
  in
  for i = 0 to m - 1 do
    let s =
      match p.Simplex.senses.(i) with Model.Le -> 1.0 | Model.Ge -> -1.0 | Model.Eq -> 0.0
    in
    if s <> 0. then begin
      (* Max activity of the (possibly negated) <= form of the row. *)
      let amax = ref 0. in
      let row0 = rows.(i) in
      for k = 0 to Array.length row0 - 1 do
        let j, a0 = Array.unsafe_get row0 k in
        let a = s *. a0 in
        amax := !amax +. (if a > 0. then a *. ub.(j) else a *. lb.(j))
      done;
      if Float.is_finite !amax then begin
        let b = ref (s *. rhs.(i)) in
        let row = ref rows.(i) in
        Array.iteri
          (fun k (j, a0) ->
            let a = s *. a0 in
            if Float.abs a > tol && int_box j then begin
              let d = !b -. !amax +. Float.abs a in
              if d > tol && d < Float.abs a -. tol then begin
                if !row == rows.(i) then row := Array.copy rows.(i);
                let a' = if a > 0. then a -. d else a +. d in
                !row.(k) <- (j, s *. a');
                if a > 0. then begin
                  b := !b -. (d *. ub.(j));
                  amax := !amax -. (d *. ub.(j))
                end
                else begin
                  b := !b +. (d *. lb.(j));
                  amax := !amax +. (d *. lb.(j))
                end;
                incr changes
              end
            end)
          !row;
        if !row != rows.(i) then begin
          rows.(i) <- !row;
          rhs.(i) <- s *. !b
        end
      end
    end
  done;
  if !changes = 0 then (p, 0)
  else ({ p with Simplex.rows; rhs }, !changes)

let reduced_problem (p : Simplex.problem) active =
  let keep = ref [] in
  for i = Array.length active - 1 downto 0 do
    if active.(i) then keep := i :: !keep
  done;
  let idx = Array.of_list !keep in
  ( {
      p with
      Simplex.rows = Array.map (fun i -> p.Simplex.rows.(i)) idx;
      senses = Array.map (fun i -> p.Simplex.senses.(i)) idx;
      rhs = Array.map (fun i -> p.Simplex.rhs.(i)) idx;
    },
    idx )

(* ------------------------------------------------------------------ *)
(* Reduction stack                                                     *)
(* ------------------------------------------------------------------ *)

type pass =
  | Propagate
  | Probe
  | Parallel_rows
  | Fix_columns
  | Empty_columns
  | Substitute
  | Strengthen

let all_passes =
  [ Propagate; Probe; Parallel_rows; Fix_columns; Empty_columns; Substitute; Strengthen ]

let pass_name = function
  | Propagate -> "propagate"
  | Probe -> "probe"
  | Parallel_rows -> "parallel"
  | Fix_columns -> "fix"
  | Empty_columns -> "empty"
  | Substitute -> "subst"
  | Strengthen -> "strengthen"

let pass_of_name = function
  | "propagate" -> Some Propagate
  | "probe" -> Some Probe
  | "parallel" -> Some Parallel_rows
  | "fix" -> Some Fix_columns
  | "empty" -> Some Empty_columns
  | "subst" -> Some Substitute
  | "strengthen" -> Some Strengthen
  | _ -> None

let passes_of_string s =
  let parts = String.split_on_char ',' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go acc rest
    | name :: rest -> (
        match pass_of_name (String.trim name) with
        | Some p -> go (p :: acc) rest
        | None -> Error (Printf.sprintf "unknown presolve pass %S" name))
  in
  go [] parts

type pass_stats = {
  ps_pass : pass;
  ps_rows_removed : int;
  ps_cols_removed : int;
  ps_changes : int;
}

type reduction = {
  red_problem : Simplex.problem;
  red_integer : bool array;
  red_lb : float array;
  red_ub : float array;
  red_post : Postsolve.t;
  red_stats : pass_stats list;
}

type reduce_outcome = Reduced of reduction | Reduce_infeasible of string

(* Column-to-rows adjacency of the full row set, CSC-style. *)
let build_adjacency (p : Simplex.problem) =
  let n = p.Simplex.ncols in
  let cnt = Array.make (n + 1) 0 in
  Array.iter
    (fun row -> Array.iter (fun (j, _) -> cnt.(j) <- cnt.(j) + 1) row)
    p.Simplex.rows;
  let adjp = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    adjp.(j + 1) <- adjp.(j) + cnt.(j)
  done;
  let adj = Array.make adjp.(n) 0 in
  Array.fill cnt 0 (n + 1) 0;
  Array.iteri
    (fun i row ->
      Array.iter
        (fun (j, _) ->
          adj.(adjp.(j) + cnt.(j)) <- i;
          cnt.(j) <- cnt.(j) + 1)
        row)
    p.Simplex.rows;
  (adjp, adj)

let reduce ?(max_rounds = 16) ?(tol = 1e-9) ?(passes = all_passes) ?essential
    (p : Simplex.problem) ~integer ~lb ~ub =
  let feas = feas_slack tol and islack = int_slack tol in
  let enabled pass = List.mem pass passes in
  let n = p.Simplex.ncols in
  let m = Array.length p.Simplex.rows in
  let wlb = Array.copy lb and wub = Array.copy ub in
  let active = Array.make m true in
  let tightenings = ref 0 in
  let probe_fixed = ref 0 in
  let redundant_rows = ref 0 in
  try
    let adjp, adj = build_adjacency p in
    let inq = Array.make m false in
    let queue = Queue.create () in
    let enqueue i =
      if active.(i) && not inq.(i) then begin
        inq.(i) <- true;
        Queue.push i queue
      end
    in
    let enqueue_var j =
      for k = adjp.(j) to adjp.(j + 1) - 1 do
        enqueue adj.(k)
      done
    in
    let round_int j =
      if integer.(j) then begin
        wlb.(j) <- Float.ceil (wlb.(j) -. islack);
        wub.(j) <- Float.floor (wub.(j) +. islack)
      end
    in
    let tighten j keep_lb keep_ub =
      (* [keep_lb]/[keep_ub] are candidate new bounds; apply whichever
         improves by more than [tol]. *)
      let improved = ref false in
      if keep_lb > wlb.(j) +. tol then begin
        wlb.(j) <- keep_lb;
        improved := true
      end;
      if keep_ub < wub.(j) -. tol then begin
        wub.(j) <- keep_ub;
        improved := true
      end;
      if !improved then begin
        round_int j;
        incr tightenings;
        if wlb.(j) > wub.(j) +. feas then
          raise (Infeasible (Printf.sprintf "empty domain for variable %d" j));
        enqueue_var j
      end
    in
    let propagate_le row rhs neg i amin =
      let s = if neg then -1.0 else 1.0 in
      if amin > rhs +. feas then
        raise (Infeasible (Printf.sprintf "row %d cannot be satisfied" i));
      if Float.is_finite amin then
        for k = 0 to Array.length row - 1 do
          let j, a0 = Array.unsafe_get row k in
          let a = s *. a0 in
          let contrib = if a > 0. then a *. wlb.(j) else a *. wub.(j) in
          let rest = amin -. contrib in
          if Float.is_finite rest then
            if a > 0. then tighten j neg_infinity ((rhs -. rest) /. a)
            else tighten j ((rhs -. rest) /. a) infinity
        done
    in
    let act = { amin = 0.; amax = 0. } in
    (* Check row [i] at the working bounds: infeasible, redundant
       (deactivated), or else, with [propagate], tighten its support. *)
    let process ~propagate i =
      let row = p.Simplex.rows.(i) and rhs = p.Simplex.rhs.(i) in
      activity row wlb wub act;
      let amin = act.amin and amax = act.amax in
      match p.Simplex.senses.(i) with
      | Model.Le ->
          if amin > rhs +. feas then
            raise (Infeasible (Printf.sprintf "row %d infeasible" i));
          if amax <= rhs +. tol then begin
            active.(i) <- false;
            incr redundant_rows
          end
          else if propagate then propagate_le row rhs false i amin
      | Model.Ge ->
          if amax < rhs -. feas then
            raise (Infeasible (Printf.sprintf "row %d infeasible" i));
          if amin >= rhs -. tol then begin
            active.(i) <- false;
            incr redundant_rows
          end
          else if propagate then propagate_le row (-.rhs) true i (-.amax)
      | Model.Eq ->
          if amin > rhs +. feas || amax < rhs -. feas then
            raise (Infeasible (Printf.sprintf "row %d infeasible" i));
          if amin >= rhs -. tol && amax <= rhs +. tol then begin
            active.(i) <- false;
            incr redundant_rows
          end
          else if propagate then begin
            propagate_le row rhs false i amin;
            propagate_le row (-.rhs) true i (-.amax)
          end
    in
    let budget = ref (Int.max m (max_rounds * m)) in
    let drain () =
      while (not (Queue.is_empty queue)) && !budget > 0 do
        let i = Queue.pop queue in
        inq.(i) <- false;
        decr budget;
        if active.(i) then process ~propagate:true i
      done;
      Queue.clear queue;
      Array.fill inq 0 m false
    in
    if enabled Propagate then begin
      for i = 0 to m - 1 do
        enqueue i
      done;
      drain ()
    end;
    (* Probing on the 0-1 structure: conflict (clique) pairs mined from
       <=-rows over binaries, exactly-one sets from unit Eq rows; a
       binary conflicting with every free member of an exactly-one set
       can never be 1.  Fixings re-enter the propagation worklist. *)
    if enabled Probe then begin
      let is_binary j =
        integer.(j) && wlb.(j) >= -.islack && wub.(j) <= 1. +. islack
      in
      let rounds = ref 0 in
      let again = ref true in
      while !again && !rounds < 3 do
        incr rounds;
        again := false;
        (* The shared conflict/clique table (also the substrate of the
           clique cut separator) mined under the current working
           bounds; its slacks derive from the same [tol]. *)
        let tbl =
          Conflicts.build ~tol ~rows:active p ~nrows:m ~integer ~lb:wlb
            ~ub:wub
        in
        (* Exactly-one sets in descending row order (as the inline miner
           visited them): a binary conflicting with every free member of
           a set can never be 1. *)
        List.iter
          (fun (_, row) ->
            (* Free members of the exactly-one set; skip sets already
               decided (a member at 1, or all but one at 0). *)
            let free =
              Array.fold_left
                (fun acc j ->
                  if wub.(j) > 0.5 && wlb.(j) < 0.5 then j :: acc else acc)
                [] row
            in
            match free with
            | [] -> ()
            | pivot :: _ as members ->
                List.iter
                  (fun v ->
                    if
                      is_binary v && wub.(v) > 0.5 && wlb.(v) < 0.5
                      && (not (List.mem v members))
                      && List.for_all
                           (fun u -> u = v || Conflicts.conflict tbl v u)
                           members
                    then begin
                      (* Some free member is 1 in every feasible point,
                         and v conflicts with each of them. *)
                      wub.(v) <- 0.;
                      incr probe_fixed;
                      incr tightenings;
                      again := true;
                      enqueue_var v
                    end)
                  (Conflicts.neighbors tbl pivot))
          (List.rev (Conflicts.cliques tbl));
        if !again && enabled Propagate then drain ()
      done
    end;
    (* Final redundancy sweep at the fixpoint bounds, so the verdict set
       never depends on worklist order. *)
    if enabled Propagate then
      for i = 0 to m - 1 do
        if active.(i) then process ~propagate:false i
      done;
    (* ---------------- column passes ---------------- *)
    (* 0 = kept, 1 = fixed, 2 = empty-fixed, 3 = substituted *)
    let col_mark = Array.make n 0 in
    let fixes = ref [] in
    let fix_count = ref 0 and empty_count = ref 0 in
    if enabled Fix_columns then
      for j = 0 to n - 1 do
        if integer.(j) then begin
          if wub.(j) -. wlb.(j) < 0.5 then begin
            col_mark.(j) <- 1;
            incr fix_count;
            fixes :=
              {
                Postsolve.fx_var = j;
                fx_value = Float.round ((wlb.(j) +. wub.(j)) /. 2.);
                fx_forced = true;
              }
              :: !fixes
          end
        end
        else if wub.(j) -. wlb.(j) <= tol && Float.is_finite wlb.(j) then begin
          col_mark.(j) <- 1;
          incr fix_count;
          fixes :=
            {
              Postsolve.fx_var = j;
              fx_value = (wlb.(j) +. wub.(j)) /. 2.;
              fx_forced = true;
            }
            :: !fixes
        end
      done;
    (* Occurrences of each column in still-active rows, counting only
       columns that are not yet eliminated. *)
    let occ = Array.make n 0 in
    let occ_row = Array.make n (-1) in
    for i = 0 to m - 1 do
      if active.(i) then
        Array.iter
          (fun (j, _) ->
            occ.(j) <- occ.(j) + 1;
            occ_row.(j) <- i)
          p.Simplex.rows.(i)
    done;
    if enabled Empty_columns then
      for j = 0 to n - 1 do
        if col_mark.(j) = 0 && occ.(j) = 0 then begin
          (* Unconstrained column: park it at its objective-preferred
             bound.  No finite preferred bound means the LP is unbounded
             in this column — leave it for the simplex to report. *)
          let c = p.Simplex.obj.(j) in
          let v =
            if c > tol then (if Float.is_finite wlb.(j) then Some wlb.(j) else None)
            else if c < -.tol then
              if Float.is_finite wub.(j) then Some wub.(j) else None
            else if Float.is_finite wlb.(j) then Some wlb.(j)
            else if Float.is_finite wub.(j) then Some wub.(j)
            else Some 0.
          in
          match v with
          | Some v ->
              col_mark.(j) <- 2;
              incr empty_count;
              fixes := { Postsolve.fx_var = j; fx_value = v; fx_forced = false } :: !fixes
          | None -> ()
        end
      done;
    (* Free column singletons in equality rows: a continuous variable
       appearing in exactly one active row, an equality whose other
       terms already imply its bounds, is solved out of the problem; the
       row goes with it and the objective picks up the substitution. *)
    let substs = ref [] in
    let subst_count = ref 0 in
    let row_consumed = Array.make m false in
    if enabled Substitute then
      for j = 0 to n - 1 do
        if
          col_mark.(j) = 0
          && (not integer.(j))
          && occ.(j) = 1
          && (match essential with Some e -> not e.(j) | None -> true)
        then begin
          let i = occ_row.(j) in
          if active.(i) && (not row_consumed.(i)) && p.Simplex.senses.(i) = Model.Eq
          then begin
            let row = p.Simplex.rows.(i) in
            let aj = ref 0. in
            Array.iter (fun (k, a) -> if k = j then aj := a) row;
            if Float.abs !aj >= 1e-6 then begin
              (* Implied-free test: the range of (rhs - rest)/a_j under
                 the other terms' bounds must sit inside x_j's box. *)
              let rmin = ref 0. and rmax = ref 0. in
              Array.iter
                (fun (k, a) ->
                  if k <> j then begin
                    if a > 0. then begin
                      rmin := !rmin +. (a *. wlb.(k));
                      rmax := !rmax +. (a *. wub.(k))
                    end
                    else begin
                      rmin := !rmin +. (a *. wub.(k));
                      rmax := !rmax +. (a *. wlb.(k))
                    end
                  end)
                row;
              if Float.is_finite !rmin && Float.is_finite !rmax then begin
                let rhs = p.Simplex.rhs.(i) in
                let c1 = (rhs -. !rmin) /. !aj and c2 = (rhs -. !rmax) /. !aj in
                let lo = Float.min c1 c2 and hi = Float.max c1 c2 in
                if lo >= wlb.(j) -. feas && hi <= wub.(j) +. feas then begin
                  col_mark.(j) <- 3;
                  row_consumed.(i) <- true;
                  active.(i) <- false;
                  incr subst_count;
                  substs :=
                    {
                      Postsolve.sb_var = j;
                      sb_coef = !aj;
                      sb_rhs = rhs;
                      sb_terms = Array.of_seq (Seq.filter (fun (k, _) -> k <> j)
                                    (Array.to_seq row));
                    }
                    :: !substs
                end
              end
            end
          end
        end
      done;
    let substs = Array.of_list (List.rev !substs) in
    let fixes = Array.of_list !fixes in
    (* ---------------- assembly ---------------- *)
    let col_of_red =
      Array.of_list
        (List.filter (fun j -> col_mark.(j) = 0) (List.init n Fun.id))
    in
    let n_red = Array.length col_of_red in
    let red_of_col = Array.make n (-1) in
    Array.iteri (fun red j -> red_of_col.(j) <- red) col_of_red;
    (* Fixed values by original column, for rhs/objective folding. *)
    let fixed_val = Array.make n nan in
    Array.iter (fun f -> fixed_val.(f.Postsolve.fx_var) <- f.Postsolve.fx_value) fixes;
    let empty_row_drops = ref 0 in
    let assembled = ref [] in
    (* (orig row id, terms over reduced ids, sense, rhs) in row order *)
    for i = 0 to m - 1 do
      if active.(i) then begin
        let terms = ref [] and shift = ref 0. in
        Array.iter
          (fun (j, a) ->
            match col_mark.(j) with
            | 0 -> terms := (red_of_col.(j), a) :: !terms
            | 1 | 2 -> shift := !shift +. (a *. fixed_val.(j))
            | _ ->
                (* Substituted columns only ever live in their consumed
                   row, which is inactive here. *)
                assert false)
          p.Simplex.rows.(i);
        let rhs = p.Simplex.rhs.(i) -. !shift in
        match !terms with
        | [] ->
            (* All variables of the row were eliminated: it must hold as
               a ground fact, then it can be dropped. *)
            let ok =
              match p.Simplex.senses.(i) with
              | Model.Le -> 0. <= rhs +. feas
              | Model.Ge -> 0. >= rhs -. feas
              | Model.Eq -> Float.abs rhs <= feas
            in
            if not ok then
              raise (Infeasible (Printf.sprintf "row %d violated by fixings" i));
            incr empty_row_drops
        | ts ->
            let terms = Array.of_list (List.rev ts) in
            Array.sort (fun (a, _) (b, _) -> compare a b) terms;
            assembled := (i, terms, p.Simplex.senses.(i), rhs) :: !assembled
      end
    done;
    let assembled = Array.of_list (List.rev !assembled) in
    (* Parallel / duplicate / dominated-twin rows: rows with identical
       normalized coefficient vectors collapse to the tightest rhs.
       Normalization flips Ge to Le and scales by the leading
       coefficient's magnitude, so exact positive multiples collide. *)
    let parallel_dropped = ref 0 in
    let keep_row = Array.make (Array.length assembled) true in
    if enabled Parallel_rows && Array.length assembled > 1 then begin
      (* Bucket by a full-support integer digest of the normalized row
         computed without materializing key arrays (polymorphic hashing
         of float arrays only samples a prefix and the allocations
         dominate); rows are compared exactly, term by term, only on a
         digest collision, so grouping is identical to structural
         equality on the normalized keys. *)
      let norm (_, terms, sense, _) =
        let s =
          match sense with
          | Model.Le -> 1.0
          | Model.Ge -> -1.0
          | Model.Eq ->
              (* Sign-normalize Eq rows by their leading term. *)
              if snd terms.(0) < 0. then -1.0 else 1.0
        in
        (s, Float.abs (snd terms.(0)))
      in
      let same_key idx1 idx2 =
        let (_, t1, _, _) = assembled.(idx1) and (_, t2, _, _) = assembled.(idx2) in
        Array.length t1 = Array.length t2
        &&
        let s1, l1 = norm assembled.(idx1) and s2, l2 = norm assembled.(idx2) in
        let ok = ref true and k = ref 0 and len = Array.length t1 in
        while !ok && !k < len do
          let j1, a1 = Array.unsafe_get t1 !k and j2, a2 = Array.unsafe_get t2 !k in
          if j1 <> j2 || s1 *. a1 /. l1 <> s2 *. a2 /. l2 then ok := false;
          incr k
        done;
        !ok
      in
      let tbl : (int, (int * (int * bool * float) list ref) list ref) Hashtbl.t =
        Hashtbl.create (Array.length assembled)
      in
      let groups = ref [] in
      Array.iteri
        (fun idx row ->
          let _, terms, sense, rhs = row in
          let s, lead = norm row in
          if lead > 0. then begin
            let digest = ref (Array.length terms) in
            Array.iter
              (fun (j, a) ->
                digest := (!digest * 31) + j;
                digest :=
                  (!digest * 131)
                  lxor (Int64.to_int (Int64.bits_of_float (s *. a /. lead)) land max_int))
              terms;
            let nrhs = s *. rhs /. lead in
            let is_eq = sense = Model.Eq in
            let bucket =
              match Hashtbl.find_opt tbl !digest with
              | Some b -> b
              | None ->
                  let b = ref [] in
                  Hashtbl.add tbl !digest b;
                  b
            in
            match List.find_opt (fun (repr, _) -> same_key repr idx) !bucket with
            | Some (_, group) -> group := (idx, is_eq, nrhs) :: !group
            | None ->
                let group = ref [ (idx, is_eq, nrhs) ] in
                bucket := (idx, group) :: !bucket;
                groups := group :: !groups
          end)
        assembled;
      List.iter
        (fun group ->
          match !group with
          | [] | [ _ ] -> ()
          | members ->
              (* Prefer an equality (it dominates every parallel
                 inequality consistent with it); otherwise the tightest
                 <=-form rhs wins. *)
              let eqs = List.filter (fun (_, is_eq, _) -> is_eq) members in
              let keep_idx, keep_rhs =
                match eqs with
                | (idx, _, r) :: rest ->
                    List.iter
                      (fun (_, _, r') ->
                        if Float.abs (r' -. r) > feas then
                          raise (Infeasible "parallel equality rows disagree"))
                      rest;
                    (idx, r)
                | [] ->
                    List.fold_left
                      (fun (bi, br) (idx, _, r) ->
                        if r < br then (idx, r) else (bi, br))
                      (-1, infinity) members
              in
              List.iter
                (fun (idx, is_eq, r) ->
                  if idx <> keep_idx then
                    if is_eq then keep_row.(idx) <- false
                    else if r >= keep_rhs -. feas then begin
                      keep_row.(idx) <- false;
                      incr parallel_dropped
                    end
                    else if eqs <> [] then
                      (* A strictly tighter inequality than the equality
                         allows: infeasible. *)
                      raise (Infeasible "parallel rows conflict with equality")
                    else assert false)
                members;
              (* Count equality-duplicate drops too. *)
              parallel_dropped :=
                !parallel_dropped
                + List.length (List.filter (fun (i, e, _) -> e && i <> keep_idx) eqs))
        !groups
    end;
    let kept = ref [] in
    Array.iteri (fun idx row -> if keep_row.(idx) then kept := row :: !kept) assembled;
    let kept = Array.of_list (List.rev !kept) in
    let row_of_red = Array.map (fun (i, _, _, _) -> i) kept in
    let red_rows = Array.map (fun (_, t, _, _) -> t) kept in
    let red_senses = Array.map (fun (_, _, s, _) -> s) kept in
    let red_rhs = Array.map (fun (_, _, _, r) -> r) kept in
    (* Objective over kept columns, with eliminated columns folded into
       the constant and substitutions rewriting their row into it. *)
    let red_obj = Array.make n_red 0. in
    Array.iteri (fun red j -> red_obj.(red) <- p.Simplex.obj.(j)) col_of_red;
    let obj_const = ref p.Simplex.obj_const in
    Array.iter
      (fun (f : Postsolve.fix) ->
        obj_const := !obj_const +. (p.Simplex.obj.(f.fx_var) *. f.fx_value))
      fixes;
    Array.iter
      (fun (s : Postsolve.subst) ->
        let cj = p.Simplex.obj.(s.sb_var) in
        if cj <> 0. then begin
          let scale = cj /. s.sb_coef in
          obj_const := !obj_const +. (scale *. s.sb_rhs);
          Array.iter
            (fun (k, a) ->
              match col_mark.(k) with
              | 0 -> red_obj.(red_of_col.(k)) <- red_obj.(red_of_col.(k)) -. (scale *. a)
              | 1 | 2 -> obj_const := !obj_const -. (scale *. a *. fixed_val.(k))
              | _ -> assert false)
            s.sb_terms
        end)
      substs;
    let red_lb = Array.map (fun j -> wlb.(j)) col_of_red in
    let red_ub = Array.map (fun j -> wub.(j)) col_of_red in
    let red_integer = Array.map (fun j -> integer.(j)) col_of_red in
    let red_p =
      {
        Simplex.ncols = n_red;
        rows = red_rows;
        senses = red_senses;
        rhs = red_rhs;
        obj = red_obj;
        obj_const = !obj_const;
      }
    in
    let red_p, strengthened =
      if enabled Strengthen then
        strengthen ~tol red_p ~integer:red_integer ~lb:red_lb ~ub:red_ub
      else (red_p, 0)
    in
    let post =
      Postsolve.make ~ncols:n ~nrows:m ~col_of_red ~row_of_red ~fixes ~substs
    in
    let stats =
      [
        {
          ps_pass = Propagate;
          ps_rows_removed = !redundant_rows;
          ps_cols_removed = 0;
          ps_changes = !tightenings;
        };
        {
          ps_pass = Probe;
          ps_rows_removed = 0;
          ps_cols_removed = 0;
          ps_changes = !probe_fixed;
        };
        {
          ps_pass = Parallel_rows;
          ps_rows_removed = !parallel_dropped;
          ps_cols_removed = 0;
          ps_changes = 0;
        };
        {
          ps_pass = Fix_columns;
          ps_rows_removed = !empty_row_drops;
          ps_cols_removed = !fix_count;
          ps_changes = 0;
        };
        {
          ps_pass = Empty_columns;
          ps_rows_removed = 0;
          ps_cols_removed = !empty_count;
          ps_changes = 0;
        };
        {
          ps_pass = Substitute;
          ps_rows_removed = !subst_count;
          ps_cols_removed = !subst_count;
          ps_changes = 0;
        };
        {
          ps_pass = Strengthen;
          ps_rows_removed = 0;
          ps_cols_removed = 0;
          ps_changes = strengthened;
        };
      ]
    in
    Reduced
      {
        red_problem = red_p;
        red_integer;
        red_lb;
        red_ub;
        red_post = post;
        red_stats = stats;
      }
  with Infeasible why -> Reduce_infeasible why
