type var_kind = Continuous | Integer | Binary

type sense = Le | Ge | Eq

type direction = Minimize | Maximize

type constr = { c_name : string; c_expr : Lin.t; c_sense : sense; c_rhs : float }

(* Floats equal by bit pattern, so [0.] and [-0.] stay apart. *)
module Float_bits = Hashtbl.Make (struct
  type t = float

  let equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let hash = Hashtbl.hash
end)

(* A solved model stays alive for as long as its outcome is kept, so it
   is stored packed.  Each variable or row is one slot of growable
   vectors: kinds and senses a small code, names end to end in one
   buffer, and every float (bounds, costs, rhs, coefficients) an index
   into [values], the model's distinct floats by bit pattern.  Encoded
   models hold few distinct floats (28 coefficients, 35 right-hand
   sides and 3 bounds in a 1,024-row tactical model), so an index
   takes a byte or two where the float took eight.  Every row's terms
   are a run of the two shared term vectors, in increasing variable
   order.  [constr] and [objective] build their [Lin.t] on demand. *)
type t = {
  m_name : string;
  (* Variables: slot [v] of each vector.  [v_cost] is the objective
     coefficient. *)
  v_name : Vec.Str.t;
  v_kind : Vec.Uint.t;  (* [kind_code] *)
  v_lb : Vec.Uint.t;
  v_ub : Vec.Uint.t;
  v_cost : Vec.Uint.t;
  mutable obj_dir : direction;
  mutable obj_const : float;
  (* Rows: row [r] holds the [r_len.(r)] terms from [r_start.(r)] on of
     [t_var]/[t_coef].  A rewritten row's old run stays behind, dead,
     until [compact].  A row added without a name has [unnamed] in its
     [r_sense] code and an empty [r_name]. *)
  r_name : Vec.Str.t;
  r_sense : Vec.Uint.t;  (* [sense_code] *)
  r_rhs : Vec.Uint.t;
  r_start : Vec.Uint.t;
  r_len : Vec.Uint.t;
  mutable t_var : Vec.Uint.t;
  mutable t_coef : Vec.Uint.t;
  values : Vec.Float.t;
  (* Value -> index in [values]; dropped by [compact] and rebuilt by the
     next store. *)
  mutable value_ids : int Float_bits.t option;
  mutable packed : bool;  (* Nothing added or rewritten since [compact]. *)
  (* Append-only log of row ids rewritten via [set_row]; watermarks
     record a position in it so incremental consumers (the template
     presolve of Session) can ask which existing rows changed. *)
  set_log : int Vec.t;
}

let kind_code = function Continuous -> 0 | Integer -> 1 | Binary -> 2

let kind_of_code = function 0 -> Continuous | 1 -> Integer | _ -> Binary

let sense_code = function Le -> 0 | Ge -> 1 | Eq -> 2

let sense_of_code c = match c land 3 with 0 -> Le | 1 -> Ge | _ -> Eq

let unnamed = 4

let create ?(name = "model") () =
  { m_name = name; v_name = Vec.Str.create (); v_kind = Vec.Uint.create ();
    v_lb = Vec.Uint.create (); v_ub = Vec.Uint.create (); v_cost = Vec.Uint.create ();
    obj_dir = Minimize; obj_const = 0.; r_name = Vec.Str.create ();
    r_sense = Vec.Uint.create (); r_rhs = Vec.Uint.create (); r_start = Vec.Uint.create ();
    r_len = Vec.Uint.create (); t_var = Vec.Uint.create (); t_coef = Vec.Uint.create ();
    values = Vec.Float.create (); value_ids = None; packed = false; set_log = Vec.create () }

(* Index of [x] in [m.values], adding it if new. *)
let intern m x =
  let ids =
    match m.value_ids with
    | Some ids -> ids
    | None ->
        let ids = Float_bits.create (2 * Vec.Float.length m.values + 16) in
        Vec.Float.iteri (fun i y -> Float_bits.replace ids y i) m.values;
        m.value_ids <- Some ids;
        ids
  in
  match Float_bits.find_opt ids x with
  | Some i -> i
  | None ->
      let i = Vec.Float.length m.values in
      m.packed <- false;
      Vec.Float.add_last m.values x;
      Float_bits.add ids x i;
      i

let value m slots i = Vec.Float.get m.values (Vec.Uint.get slots i)

let name m = m.m_name

let nvars m = Vec.Str.length m.v_name

let nconstrs m = Vec.Uint.length m.r_sense

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
  Vec.Str.add_last m.v_name vname;
  Vec.Uint.add_last m.v_kind (kind_code kind);
  Vec.Uint.add_last m.v_lb (intern m lb);
  Vec.Uint.add_last m.v_ub (intern m ub);
  Vec.Uint.add_last m.v_cost (intern m obj);
  id

let add_binary m ?obj vname = add_var m ?obj ~kind:Binary vname

(* Append [e]'s terms to the term vectors; returns the run's start. *)
let append_terms m e =
  let start = Vec.Uint.length m.t_var in
  Lin.iter
    (fun v c ->
      Vec.Uint.add_last m.t_var v;
      Vec.Uint.add_last m.t_coef (intern m c))
    e;
  start

let add_row m ?name expr sense rhs =
  let id = nconstrs m in
  m.packed <- false;
  Vec.Uint.add_last m.r_start (append_terms m expr);
  Vec.Uint.add_last m.r_len (Lin.nterms expr);
  (match name with
  | Some n ->
      Vec.Str.add_last m.r_name n;
      Vec.Uint.add_last m.r_sense (sense_code sense)
  | None ->
      Vec.Str.add_last m.r_name "";
      Vec.Uint.add_last m.r_sense (sense_code sense lor unnamed));
  Vec.Uint.add_last m.r_rhs (intern m (rhs -. Lin.constant expr));
  id

let add_constr m ?name expr sense rhs = ignore (add_row m ?name expr sense rhs)

let set_row m row expr sense rhs =
  if row < 0 || row >= nconstrs m then
    invalid_arg (Printf.sprintf "Model.set_row: row %d out of range" row);
  m.packed <- false;
  Vec.add_last m.set_log row;
  Vec.Uint.set m.r_start row (append_terms m expr);
  Vec.Uint.set m.r_len row (Lin.nterms expr);
  Vec.Uint.set m.r_sense row (sense_code sense lor (Vec.Uint.get m.r_sense row land unnamed));
  Vec.Uint.set m.r_rhs row (intern m (rhs -. Lin.constant expr))

let compact m =
  if not m.packed then begin
    let live = ref 0 in
    Vec.Uint.iter (fun n -> live := !live + n) m.r_len;
    let vars = Array.make !live 0 and coefs = Array.make !live 0 in
    let pos = ref 0 in
    for row = 0 to nconstrs m - 1 do
      let start = Vec.Uint.get m.r_start row in
      Vec.Uint.set m.r_start row !pos;
      for k = start to start + Vec.Uint.get m.r_len row - 1 do
        vars.(!pos) <- Vec.Uint.get m.t_var k;
        coefs.(!pos) <- Vec.Uint.get m.t_coef k;
        incr pos
      done
    done;
    m.t_var <- Vec.Uint.of_array vars;
    m.t_coef <- Vec.Uint.of_array coefs;
    List.iter Vec.Str.trim [ m.v_name; m.r_name ];
    List.iter Vec.Uint.trim [ m.v_kind; m.v_lb; m.v_ub; m.v_cost; m.r_sense; m.r_rhs; m.r_start; m.r_len ];
    Vec.trim m.set_log;
    Vec.Float.trim m.values;
    m.value_ids <- None;
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
    Vec.Uint.set m.v_cost v (intern m (Lin.coeff expr v))
  done;
  m.obj_dir <- dir;
  m.obj_const <- Lin.constant expr

let direction m = m.obj_dir

let objective m =
  let e = ref (Lin.const m.obj_const) in
  for v = 0 to nvars m - 1 do
    e := Lin.add_term !e (value m m.v_cost v) v
  done;
  (m.obj_dir, !e)

let set_bounds m v lb ub =
  Vec.Uint.set m.v_lb v (intern m lb);
  Vec.Uint.set m.v_ub v (intern m ub)

let var_name m v = Vec.Str.get m.v_name v

let var_kind m v = kind_of_code (Vec.Uint.get m.v_kind v)

let var_lb m v = value m m.v_lb v

let var_ub m v = value m m.v_ub v

let is_integer m v =
  match var_kind m v with Integer | Binary -> true | Continuous -> false

let row m r =
  let start = Vec.Uint.get m.r_start r in
  ( Array.init (Vec.Uint.get m.r_len r) (fun k ->
        (Vec.Uint.get m.t_var (start + k), value m m.t_coef (start + k))),
    sense_of_code (Vec.Uint.get m.r_sense r),
    value m m.r_rhs r )

(* The stored run is nonzero and sorted, and [add_row] folded the
   constant into the rhs, so adding the terms back in order rebuilds
   the expression it was given. *)
let constr m r =
  let code = Vec.Uint.get m.r_sense r in
  let start = Vec.Uint.get m.r_start r in
  let e = ref Lin.zero in
  for k = start to start + Vec.Uint.get m.r_len r - 1 do
    e := Lin.add_term !e (value m m.t_coef k) (Vec.Uint.get m.t_var k)
  done;
  { c_name = (if code land unnamed <> 0 then "c" ^ string_of_int r else Vec.Str.get m.r_name r);
    c_expr = !e; c_sense = sense_of_code code; c_rhs = value m m.r_rhs r }

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
  Vec.Uint.iter
    (fun k ->
      match kind_of_code k with
      | Binary -> incr nbin
      | Integer -> incr nint
      | Continuous -> incr ncont)
    m.v_kind;
  Format.fprintf ppf "%s: %d vars (%d bin, %d int, %d cont), %d constraints" m.m_name
    (nvars m) !nbin !nint !ncont (nconstrs m)
