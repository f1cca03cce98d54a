(* Minimal JSON writer: just what the result line and the run record need. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_buffer b = function
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Float _ -> Buffer.add_string b "null"
  | String s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b (String k);
          Buffer.add_char b ':';
          to_buffer b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* Minimal JSON reader, enough for BENCHMARK.json. *)
exception Parse_error of string

let parse s =
  let n = String.length s and i = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at offset %d" what !i)) in
  let rec ws () = if !i < n && String.contains " \t\r\n" s.[!i] then (incr i; ws ()) in
  let eat c = ws (); if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected '%c'" c) in
  let lit word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word then (i := !i + String.length word; v)
    else fail "bad literal"
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string"
      else
        match s.[!i] with
        | '"' -> incr i
        | '\\' when !i + 1 < n ->
            (match s.[!i + 1] with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | c when c = '"' || c = '\\' || c = '/' -> Buffer.add_char b c
            | _ -> fail "unsupported escape");
            i := !i + 2;
            go ()
        | c -> Buffer.add_char b c; incr i; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' -> incr i; Obj (members ())
    | '[' -> incr i; List (elements ())
    | '"' -> String (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | _ ->
        let j = !i in
        while !i < n && String.contains "+-0123456789.eE" s.[!i] do incr i done;
        let t = String.sub s j (!i - j) in
        (match int_of_string_opt t with
        | Some k -> Int k
        | None -> ( match float_of_string_opt t with Some f -> Float f | None -> fail "bad value"))
  and members () =
    ws ();
    if !i < n && s.[!i] = '}' then (incr i; [])
    else
      let k = str () in
      eat ':';
      let v = value () in
      ws ();
      if !i < n && s.[!i] = ',' then (incr i; (k, v) :: members ()) else (eat '}'; [ (k, v) ])
  and elements () =
    ws ();
    if !i < n && s.[!i] = ']' then (incr i; [])
    else
      let v = value () in
      ws ();
      if !i < n && s.[!i] = ',' then (incr i; v :: elements ()) else (eat ']'; [ v ])
  in
  let v = value () in
  ws ();
  if !i <> n then fail "trailing text";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
