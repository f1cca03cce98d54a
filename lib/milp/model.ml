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

(* Distinct tuples of [arity] small ints, each stored once: slot [k] of
   tuple [c] is slot [arity * c + k] of [slots].  [ids] maps a tuple to
   its index; [renumber] drops it and the next [intern] rebuilds it. *)
module Tuples = struct
  type t = { arity : int; mutable slots : Vec.Uint.t; mutable ids : (int array, int) Hashtbl.t option }

  let create arity = { arity; slots = Vec.Uint.create (); ids = None }

  let count t = Vec.Uint.length t.slots / t.arity

  let get t c k = Vec.Uint.get t.slots ((t.arity * c) + k)

  let intern t key =
    let ids =
      match t.ids with
      | Some ids -> ids
      | None ->
          let ids = Hashtbl.create 64 in
          for c = 0 to count t - 1 do
            Hashtbl.replace ids (Array.init t.arity (get t c)) c
          done;
          t.ids <- Some ids;
          ids
    in
    match Hashtbl.find_opt ids key with
    | Some c -> c
    | None ->
        let c = count t in
        Array.iter (Vec.Uint.add_last t.slots) key;
        Hashtbl.add ids key c;
        c

  (* Keep only the tuples [refs] holds, numbered by first use, and
     return [refs] renumbered. *)
  let renumber t refs =
    let renum = Array.make (count t) (-1) in
    let slots = Vec.Uint.create () in
    let out =
      Array.init (Vec.Uint.length refs) (fun i ->
          let c = Vec.Uint.get refs i in
          if renum.(c) < 0 then begin
            renum.(c) <- Vec.Uint.length slots / t.arity;
            for k = 0 to t.arity - 1 do
              Vec.Uint.add_last slots (get t c k)
            done
          end;
          renum.(c))
    in
    Vec.Uint.trim slots;
    t.slots <- slots;
    t.ids <- None;
    Vec.Uint.of_array out
end

(* A solved model stays alive for as long as its outcome is kept, so it
   is stored packed.  Each variable or row is one slot of growable
   vectors: its name, front-coded in one buffer, and its class, an
   index into a table of distinct tuples (a variable's kind, bounds and
   cost; a row's sense, rhs and length).  Every float (bounds, costs,
   rhs, coefficients) is an index into [values], the model's distinct
   floats by bit pattern.  Encoded
   models hold few distinct floats (28 coefficients, 35 right-hand
   sides and 3 bounds in a 1,024-row tactical model), so an index
   takes a byte or two where the float took eight.  Every row's terms
   are a run of the two shared term vectors, in increasing variable
   order.  [constr] and [objective] build their [Lin.t] on demand. *)
type t = {
  m_name : string;
  (* Variables: slot [v] of [v_name] and [v_class].  A variable's class
     in [var_classes] is its [kind_code] and the indices of its lower
     bound, upper bound and objective coefficient.  Encoded variables
     share few classes (16 among the 695 variables of a tactical
     model), so a variable takes a byte where the four took four.
     Classes no variable holds any more are dropped by [compact]. *)
  v_name : Vec.Str.t;
  mutable v_class : Vec.Uint.t;
  var_classes : Tuples.t;
  mutable obj_dir : direction;
  mutable obj_const : float;
  (* Rows: slot [r] of [r_name] and [r_class].  A row's class in
     [row_classes] is its [sense_code], the index of its rhs and its
     length, the number of terms in its run of [terms].  A term is two
     varints: the gap from the row's previous variable (the first
     term's: its id) and the index of its coefficient.  A rewritten
     row's old run stays behind, dead, until [compact].  Unpacked,
     [r_start.(r)] is the byte offset of row [r]'s run; packed, the
     runs lie end to end in row order and [r_start] keeps only every
     [row_block]-th offset (see [row_start]).  A row added without a
     name has [unnamed] in its sense code and an empty [r_name]. *)
  r_name : Vec.Str.t;
  mutable r_class : Vec.Uint.t;
  row_classes : Tuples.t;
  mutable r_start : Vec.Uint.t;
  mutable terms : Vec.Varints.t;
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

(* Slot [k] of row [r]'s class: 0 sense code, 1 rhs, 2 length. *)
let row_slot m r k = Tuples.get m.row_classes (Vec.Uint.get m.r_class r) k

let row_len m r = row_slot m r 2

let nconstrs m = Vec.Uint.length m.r_class

let row_block = 16

(* The offset past the [n] terms from offset [pos] on. *)
let skip_terms m pos n =
  let p = ref pos in
  for _ = 1 to 2 * n do
    p := Vec.Varints.next m.terms !p
  done;
  !p

(* Offset of row [r]'s run: packed, the block's offset plus the runs of
   the rows before [r] in its block. *)
let row_start m r =
  if not m.packed then Vec.Uint.get m.r_start r
  else begin
    let s = ref (Vec.Uint.get m.r_start (r / row_block)) in
    for k = r / row_block * row_block to r - 1 do
      s := skip_terms m !s (row_len m k)
    done;
    !s
  end

(* Leave the packed form before anything is added or rewritten. *)
let unpack m =
  if m.packed then begin
    let starts = Vec.Uint.create () and pos = ref 0 in
    for r = 0 to nconstrs m - 1 do
      Vec.Uint.add_last starts !pos;
      pos := skip_terms m !pos (row_len m r)
    done;
    m.r_start <- starts;
    m.packed <- false
  end

(* Index of [key] in [tuples]; a new tuple leaves the packed form. *)
let classify m tuples key =
  let n = Tuples.count tuples in
  let c = Tuples.intern tuples key in
  if c = n then unpack m;
  c

let create ?(name = "model") () =
  { m_name = name; v_name = Vec.Str.create (); v_class = Vec.Uint.create ();
    var_classes = Tuples.create 4; obj_dir = Minimize; obj_const = 0.;
    r_name = Vec.Str.create (); r_class = Vec.Uint.create (); row_classes = Tuples.create 3;
    r_start = Vec.Uint.create (); terms = Vec.Varints.create ();
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
      unpack m;
      Vec.Float.add_last m.values x;
      Float_bits.add ids x i;
      i

(* Slot [k] of variable [v]'s class: 0 kind code, 1 lower bound,
   2 upper bound, 3 objective coefficient. *)
let class_slot m v k = Tuples.get m.var_classes (Vec.Uint.get m.v_class v) k

let var_value m v k = Vec.Float.get m.values (class_slot m v k)

(* Give variable [v] the class of [kind], [lb], [ub], [cost] (value
   indices), each defaulting to its current one. *)
let set_class m v ?kind ?lb ?ub ?cost () =
  let pick o k = match o with Some x -> x | None -> class_slot m v k in
  let key = [| pick kind 0; pick lb 1; pick ub 2; pick cost 3 |] in
  Vec.Uint.set m.v_class v (classify m m.var_classes key)

let name m = m.m_name

let nvars m = Vec.Str.length m.v_name


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
  unpack m;
  Vec.Str.add_last m.v_name vname;
  let lb = intern m lb in
  let ub = intern m ub in
  let cost = intern m obj in
  Vec.Uint.add_last m.v_class (classify m m.var_classes [| kind_code kind; lb; ub; cost |]);
  id

let add_binary m ?obj vname = add_var m ?obj ~kind:Binary vname

(* Append [e]'s terms, in increasing variable order, to [terms];
   returns the run's offset. *)
let append_terms m e =
  let start = Vec.Varints.length m.terms in
  let prev = ref 0 in
  Lin.iter
    (fun v c ->
      if v < 0 then invalid_arg (Printf.sprintf "Model: variable %d out of range" v);
      let ci = intern m c in
      Vec.Varints.add_last m.terms (v - !prev);
      Vec.Varints.add_last m.terms ci;
      prev := v)
    e;
  start

(* [f var coef] over row [r]'s terms, in order. *)
let iter_terms m r f =
  let p = ref (row_start m r) and prev = ref 0 in
  for _ = 1 to row_len m r do
    let v = !prev + Vec.Varints.get m.terms !p in
    p := Vec.Varints.next m.terms !p;
    let ci = Vec.Varints.get m.terms !p in
    p := Vec.Varints.next m.terms !p;
    prev := v;
    f v (Vec.Float.get m.values ci)
  done

let add_row m ?name expr sense rhs =
  let id = nconstrs m in
  unpack m;
  Vec.Uint.add_last m.r_start (append_terms m expr);
  let code =
    match name with
    | Some n ->
        Vec.Str.add_last m.r_name n;
        sense_code sense
    | None ->
        Vec.Str.add_last m.r_name "";
        sense_code sense lor unnamed
  in
  let rhs = intern m (rhs -. Lin.constant expr) in
  Vec.Uint.add_last m.r_class (classify m m.row_classes [| code; rhs; Lin.nterms expr |]);
  id

let add_constr m ?name expr sense rhs = ignore (add_row m ?name expr sense rhs)

let set_row m row expr sense rhs =
  if row < 0 || row >= nconstrs m then
    invalid_arg (Printf.sprintf "Model.set_row: row %d out of range" row);
  unpack m;
  Vec.add_last m.set_log row;
  Vec.Uint.set m.r_start row (append_terms m expr);
  let code = sense_code sense lor (row_slot m row 0 land unnamed) in
  let rhs = intern m (rhs -. Lin.constant expr) in
  Vec.Uint.set m.r_class row (classify m m.row_classes [| code; rhs; Lin.nterms expr |])

let compact m =
  if not m.packed then begin
    let terms = Vec.Varints.create () in
    let blocks = Vec.Uint.create () in
    for row = 0 to nconstrs m - 1 do
      let start = Vec.Uint.get m.r_start row in
      if row mod row_block = 0 then Vec.Uint.add_last blocks (Vec.Varints.length terms);
      Vec.Varints.append_sub terms m.terms start (skip_terms m start (row_len m row) - start)
    done;
    Vec.Varints.trim terms;
    m.terms <- terms;
    Vec.Uint.trim blocks;
    m.r_start <- blocks;
    m.v_class <- Tuples.renumber m.var_classes m.v_class;
    m.r_class <- Tuples.renumber m.row_classes m.r_class;
    List.iter Vec.Str.trim [ m.v_name; m.r_name ];
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
    set_class m v ~cost:(intern m (Lin.coeff expr v)) ()
  done;
  m.obj_dir <- dir;
  m.obj_const <- Lin.constant expr

let direction m = m.obj_dir

let objective m =
  let e = ref (Lin.const m.obj_const) in
  for v = 0 to nvars m - 1 do
    e := Lin.add_term !e (var_value m v 3) v
  done;
  (m.obj_dir, !e)

let set_bounds m v lb ub =
  let lb = intern m lb in
  let ub = intern m ub in
  set_class m v ~lb ~ub ()

let var_name m v = Vec.Str.get m.v_name v

let var_kind m v = kind_of_code (class_slot m v 0)

let var_lb m v = var_value m v 1

let var_ub m v = var_value m v 2

let is_integer m v =
  match var_kind m v with Integer | Binary -> true | Continuous -> false

let row m r =
  let terms = Array.make (row_len m r) (0, 0.) and k = ref 0 in
  iter_terms m r (fun v c ->
      terms.(!k) <- (v, c);
      incr k);
  ( terms,
    sense_of_code (row_slot m r 0),
    Vec.Float.get m.values (row_slot m r 1) )

(* The stored run is nonzero and sorted, and [add_row] folded the
   constant into the rhs, so adding the terms back in order rebuilds
   the expression it was given. *)
let constr m r =
  let code = row_slot m r 0 in
  let e = ref Lin.zero in
  iter_terms m r (fun v c -> e := Lin.add_term !e c v);
  { c_name = (if code land unnamed <> 0 then "c" ^ string_of_int r else Vec.Str.get m.r_name r);
    c_expr = !e; c_sense = sense_of_code code; c_rhs = Vec.Float.get m.values (row_slot m r 1) }

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
  for v = 0 to nvars m - 1 do
    match var_kind m v with
    | Binary -> incr nbin
    | Integer -> incr nint
    | Continuous -> incr ncont
  done;
  Format.fprintf ppf "%s: %d vars (%d bin, %d int, %d cont), %d constraints" m.m_name
    (nvars m) !nbin !nint !ncont (nconstrs m)
