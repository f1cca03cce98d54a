type var_kind = Continuous | Integer | Binary

type sense = Le | Ge | Eq

type direction = Minimize | Maximize

type constr = { c_name : string; c_expr : Lin.t; c_sense : sense; c_rhs : float }

(* A solved model stays alive for as long as its outcome is kept, so it
   is stored packed: one slot per variable or row in growable vectors
   (floats unboxed), and every row's terms as a run of the two shared
   term vectors, in increasing variable order.  [constr] and
   [objective] build their [Lin.t] on demand. *)
type t = {
  m_name : string;
  (* Variables: slot [v] of each vector.  [v_cost] is the objective
     coefficient. *)
  v_name : string Vec.t;
  v_kind : var_kind Vec.t;
  v_lb : Vec.Float.t;
  v_ub : Vec.Float.t;
  v_cost : Vec.Float.t;
  mutable obj_dir : direction;
  mutable obj_const : float;
  (* Rows: row [r] holds the [r_len.(r)] terms from [r_start.(r)] on of
     [t_var]/[t_coef].  A rewritten row's old run stays behind, dead,
     until [compact]. *)
  r_name : string Vec.t;
  r_sense : sense Vec.t;
  r_rhs : Vec.Float.t;
  r_start : int Vec.t;
  r_len : int Vec.t;
  mutable t_var : int Vec.t;
  mutable t_coef : Vec.Float.t;
  mutable packed : bool;  (* Nothing added or rewritten since [compact]. *)
  (* Append-only log of row ids rewritten via [set_row]; watermarks
     record a position in it so incremental consumers (the template
     presolve of Session) can ask which existing rows changed. *)
  set_log : int Vec.t;
}

let create ?(name = "model") () =
  { m_name = name; v_name = Vec.create (); v_kind = Vec.create (); v_lb = Vec.Float.create ();
    v_ub = Vec.Float.create (); v_cost = Vec.Float.create (); obj_dir = Minimize;
    obj_const = 0.; r_name = Vec.create (); r_sense = Vec.create (); r_rhs = Vec.Float.create ();
    r_start = Vec.create (); r_len = Vec.create (); t_var = Vec.create ();
    t_coef = Vec.Float.create (); packed = false; set_log = Vec.create () }

let name m = m.m_name

let nvars m = Vec.length m.v_name

let nconstrs m = Vec.length m.r_name

let add_var m ?lb ?ub ?(kind = Continuous) ?(obj = 0.) vname =
  let lb = match lb with Some l -> l | None -> 0. in
  let ub =
    match ub with
    | Some u -> u
    | None -> ( match kind with Binary -> 1. | Continuous | Integer -> infinity)
  in
  let lb, ub =
    match kind with
    | Binary -> (Float.max 0. lb, Float.min 1. ub)
    | Continuous | Integer -> (lb, ub)
  in
  if lb > ub then
    invalid_arg
      (Printf.sprintf "Model.add_var %S: lb (%g) > ub (%g)" vname lb ub);
  let id = nvars m in
  m.packed <- false;
  Vec.add_last m.v_name vname;
  Vec.add_last m.v_kind kind;
  Vec.Float.add_last m.v_lb lb;
  Vec.Float.add_last m.v_ub ub;
  Vec.Float.add_last m.v_cost obj;
  id

let add_binary m ?obj vname = add_var m ?obj ~kind:Binary vname

(* Stored for a row added without a name: [constr] spells it "c<row>"
   on demand.  Compared physically, so no caller's string matches it. *)
let unnamed = String.make 1 'c'

(* Append [e]'s terms to the term vectors; returns the run's start. *)
let append_terms m e =
  let start = Vec.length m.t_var in
  Lin.iter
    (fun v c ->
      Vec.add_last m.t_var v;
      Vec.Float.add_last m.t_coef c)
    e;
  start

let add_row m ?name expr sense rhs =
  let id = nconstrs m in
  m.packed <- false;
  Vec.add_last m.r_start (append_terms m expr);
  Vec.add_last m.r_len (Lin.nterms expr);
  Vec.add_last m.r_name (match name with Some n -> n | None -> unnamed);
  Vec.add_last m.r_sense sense;
  Vec.Float.add_last m.r_rhs (rhs -. Lin.constant expr);
  id

let add_constr m ?name expr sense rhs = ignore (add_row m ?name expr sense rhs)

let set_row m row expr sense rhs =
  if row < 0 || row >= nconstrs m then
    invalid_arg (Printf.sprintf "Model.set_row: row %d out of range" row);
  m.packed <- false;
  Vec.add_last m.set_log row;
  Vec.set m.r_start row (append_terms m expr);
  Vec.set m.r_len row (Lin.nterms expr);
  Vec.set m.r_sense row sense;
  Vec.Float.set m.r_rhs row (rhs -. Lin.constant expr)

let compact m =
  if not m.packed then begin
    let live = Vec.fold_left ( + ) 0 m.r_len in
    let vars = Array.make live 0 and coefs = Array.make live 0. in
    let pos = ref 0 in
    for row = 0 to nconstrs m - 1 do
      let start = Vec.get m.r_start row in
      Vec.set m.r_start row !pos;
      for k = start to start + Vec.get m.r_len row - 1 do
        vars.(!pos) <- Vec.get m.t_var k;
        coefs.(!pos) <- Vec.Float.get m.t_coef k;
        incr pos
      done
    done;
    m.t_var <- Vec.of_array vars;
    m.t_coef <- Vec.Float.of_array coefs;
    List.iter Vec.trim [ m.v_name; m.r_name ];
    Vec.trim m.v_kind;
    Vec.trim m.r_sense;
    List.iter Vec.trim [ m.r_start; m.r_len; m.set_log ];
    List.iter Vec.Float.trim [ m.v_lb; m.v_ub; m.v_cost; m.r_rhs ];
    m.packed <- true
  end

let add_range m ?name lo expr hi =
  let base = match name with Some n -> n | None -> Printf.sprintf "r%d" (nconstrs m) in
  add_constr m ~name:(base ^ "_lo") expr Ge lo;
  add_constr m ~name:(base ^ "_hi") expr Le hi

let set_objective m dir expr =
  let n = nvars m in
  Lin.iter
    (fun v _ ->
      if v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Model.set_objective: variable %d out of range" v))
    expr;
  for v = 0 to n - 1 do
    Vec.Float.set m.v_cost v (Lin.coeff expr v)
  done;
  m.obj_dir <- dir;
  m.obj_const <- Lin.constant expr

let direction m = m.obj_dir

let objective m =
  let e = ref (Lin.const m.obj_const) in
  Vec.Float.iteri (fun v c -> e := Lin.add_term !e c v) m.v_cost;
  (m.obj_dir, !e)

let set_bounds m v lb ub =
  Vec.Float.set m.v_lb v lb;
  Vec.Float.set m.v_ub v ub

let var_name m v = Vec.get m.v_name v

let var_kind m v = Vec.get m.v_kind v

let var_lb m v = Vec.Float.get m.v_lb v

let var_ub m v = Vec.Float.get m.v_ub v

let is_integer m v =
  match var_kind m v with Integer | Binary -> true | Continuous -> false

let row m r =
  let start = Vec.get m.r_start r in
  ( Array.init (Vec.get m.r_len r) (fun k ->
        (Vec.get m.t_var (start + k), Vec.Float.get m.t_coef (start + k))),
    Vec.get m.r_sense r,
    Vec.Float.get m.r_rhs r )

(* The stored run is nonzero and sorted, and [add_row] folded the
   constant into the rhs, so adding the terms back in order rebuilds
   the expression it was given. *)
let constr m r =
  let name = Vec.get m.r_name r in
  let start = Vec.get m.r_start r in
  let e = ref Lin.zero in
  for k = start to start + Vec.get m.r_len r - 1 do
    e := Lin.add_term !e (Vec.Float.get m.t_coef k) (Vec.get m.t_var k)
  done;
  { c_name = (if name == unnamed then "c" ^ string_of_int r else name); c_expr = !e;
    c_sense = Vec.get m.r_sense r; c_rhs = Vec.Float.get m.r_rhs r }

type watermark = { w_vars : int; w_constrs : int; w_log : int }

let mark m =
  { w_vars = nvars m; w_constrs = nconstrs m; w_log = Vec.length m.set_log }

let vars_since m w =
  let n = nvars m in
  let rec build i = if i >= n then [] else i :: build (i + 1) in
  build w.w_vars

let constrs_since m w =
  let n = nconstrs m in
  let rec build i = if i >= n then [] else i :: build (i + 1) in
  build w.w_constrs

let touched_since m w =
  (* Rows that existed at the watermark and have been rewritten in place
     since; rows added after the watermark are reported by
     [constrs_since] instead, so the two lists partition the delta. *)
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  for k = Vec.length m.set_log - 1 downto w.w_log do
    let row = Vec.get m.set_log k in
    if row < w.w_constrs && not (Hashtbl.mem seen row) then begin
      Hashtbl.add seen row ();
      acc := row :: !acc
    end
  done;
  !acc

let constrs m = Array.init (nconstrs m) (constr m)

let iter_constrs f m =
  for r = 0 to nconstrs m - 1 do
    f r (constr m r)
  done

let check_feasible ?(tol = 1e-6) m value =
  let violation = ref None in
  let record msg = if !violation = None then violation := Some msg in
  for v = 0 to nvars m - 1 do
    let x = value v in
    let lb = var_lb m v and ub = var_ub m v in
    if x < lb -. tol || x > ub +. tol then
      record
        (Printf.sprintf "variable %s = %g outside bounds [%g, %g]" (var_name m v) x lb ub);
    if is_integer m v && Float.abs (x -. Float.round x) > tol then
      record (Printf.sprintf "variable %s = %g not integral" (var_name m v) x)
  done;
  let check_con _ c =
    let lhs = Lin.eval value c.c_expr in
    let ok =
      match c.c_sense with
      | Le -> lhs <= c.c_rhs +. tol
      | Ge -> lhs >= c.c_rhs -. tol
      | Eq -> Float.abs (lhs -. c.c_rhs) <= tol
    in
    if not ok then
      record
        (Printf.sprintf "constraint %s violated: lhs = %g, rhs = %g" c.c_name lhs c.c_rhs)
  in
  iter_constrs check_con m;
  match !violation with None -> Ok () | Some msg -> Error msg

let pp_stats ppf m =
  let nbin = ref 0 and nint = ref 0 and ncont = ref 0 in
  Vec.iter
    (function Binary -> incr nbin | Integer -> incr nint | Continuous -> incr ncont)
    m.v_kind;
  Format.fprintf ppf "%s: %d vars (%d bin, %d int, %d cont), %d constraints" m.m_name
    (nvars m) !nbin !nint !ncont (nconstrs m)
