type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest of %.15g / %.16g / %.17g that reads back to the same bits;
   %.17g always does. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let exact p =
      let s = Printf.sprintf "%.*g" p f in
      if Int64.equal (Int64.bits_of_float (float_of_string s))
           (Int64.bits_of_float f)
      then Some s
      else None
    in
    match exact 15 with
    | Some s -> s
    | None -> (
        match exact 16 with Some s -> s | None -> Printf.sprintf "%.17g" f)

let rec add buf = function
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f when Float.is_nan f -> Buffer.add_string buf "\"nan\""
  | Float f when f = Float.infinity -> Buffer.add_string buf "\"inf\""
  | Float f when f = Float.neg_infinity -> Buffer.add_string buf "\"-inf\""
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> add_string buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          add buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          add buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf
