(* A minimal JSON writer: the ledger prints one result object per run
   and takes no JSON dependency. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s

let rec write buf = function
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  (* Every digit as measured; JSON has no NaN, so a metric that could
     not be computed is null. *)
  | Float f when Float.is_finite f -> Printf.bprintf buf "%.12g" f
  | Float _ -> Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        write buf (Str k);
        Buffer.add_string buf ": ";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  write buf j;
  Buffer.contents buf
