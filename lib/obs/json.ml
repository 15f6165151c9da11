type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of t_float
  | String of string
  | List of t list
  | Obj of (string * t) list

and t_float = float

let float f = Float f

let opt f = function
  | None -> Null
  | Some v -> f v

let strings ss = List (List.map (fun s -> String s) ss)

let hex_digit n = "0123456789abcdef".[n]

(* Runs of characters that need no escaping are copied whole. *)
let rec add_escaped_from buf s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
      Buffer.add_substring buf s start (i - start);
      (match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c ->
         Buffer.add_string buf "\\u00";
         Buffer.add_char buf (hex_digit (Char.code c lsr 4));
         Buffer.add_char buf (hex_digit (Char.code c land 0xf)));
      add_escaped_from buf s (i + 1) (i + 1)
    | _ -> add_escaped_from buf s start (i + 1)

let add_escaped buf s =
  Buffer.add_char buf '"';
  add_escaped_from buf s 0 0;
  Buffer.add_char buf '"'

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

(* The C primitive behind [Printf]'s [%g], without the format
   interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest of %.12g, %.15g and %.17g that round-trips the float (the
   last always does); bare integers get ".0" so the value reads back as
   a float, while "1e+06" is already one. *)
let float_repr f =
  let round_trips s = float_of_string s = f in
  let s12 = format_float "%.12g" f in
  let repr =
    if round_trips s12 then s12
    else
      let s15 = format_float "%.15g" f in
      if round_trips s15 then s15 else format_float "%.17g" f
  in
  if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') repr then repr ^ ".0"
  else repr

(* A float costs up to three formats and two parses, and a document's
   floats repeat (a packet's spans share their timestamps), so each
   [to_buffer] call memoises them.  Keys compare by IEEE bit pattern so
   -0.0 and 0.0 stay distinct. *)
module Float_memo = Hashtbl.Make (struct
  type t = float

  let equal a b = Int64.bits_of_float a = Int64.bits_of_float b
  let hash = Hashtbl.hash
end)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i) (* -i overflows *)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-i)
  end

let to_buffer ?(pretty = false) buf v =
  let memo = Float_memo.create 16 in
  let add_float f =
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else
      match Float_memo.find memo f with
      | repr -> Buffer.add_string buf repr
      | exception Not_found ->
        let repr = float_repr f in
        Float_memo.add memo f repr;
        Buffer.add_string buf repr
  in
  let newline depth =
    Buffer.add_char buf '\n';
    for _ = 1 to 2 * depth do
      Buffer.add_char buf ' '
    done
  in
  let separator depth =
    Buffer.add_char buf ',';
    if pretty then newline depth
  in
  let rec emit depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> add_int buf i
    | Float f -> add_float f
    | String s -> add_escaped buf s
    | List [] -> Buffer.add_string buf "[]"
    | List (item :: items) ->
      open_container depth '[';
      emit (depth + 1) item;
      emit_items (depth + 1) items;
      close_container depth ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj (field :: fields) ->
      open_container depth '{';
      emit_field (depth + 1) field;
      emit_fields (depth + 1) fields;
      close_container depth '}'
  and emit_items depth = function
    | [] -> ()
    | item :: items ->
      separator depth;
      emit depth item;
      emit_items depth items
  and emit_field depth (k, v) =
    add_escaped buf k;
    Buffer.add_string buf (if pretty then ": " else ":");
    emit depth v
  and emit_fields depth = function
    | [] -> ()
    | field :: fields ->
      separator depth;
      emit_field depth field;
      emit_fields depth fields
  and open_container depth c =
    Buffer.add_char buf c;
    if pretty then newline (depth + 1)
  and close_container depth c =
    if pretty then newline depth;
    Buffer.add_char buf c
  in
  emit 0 v

let to_string ?pretty v =
  let buf = Buffer.create 256 in
  to_buffer ?pretty buf v;
  Buffer.contents buf

let to_channel ?pretty oc v =
  let buf = Buffer.create 256 in
  to_buffer ?pretty buf v;
  Buffer.output_buffer oc buf;
  output_char oc '\n'

let write_file ?pretty ~path v =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel ?pretty oc v)

(* ---- parser ---- *)

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec loop () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      loop ()
    | Some _ | None -> ()
  in
  loop ()

let expect cur c =
  match peek cur with
  | Some got when got = c -> advance cur
  | Some got -> fail cur (Printf.sprintf "expected %c, got %c" c got)
  | None -> fail cur (Printf.sprintf "expected %c, got end of input" c)

let literal cur word value =
  if
    cur.pos + String.length word <= String.length cur.text
    && String.sub cur.text cur.pos (String.length word) = word
  then begin
    cur.pos <- cur.pos + String.length word;
    value
  end
  else fail cur (Printf.sprintf "invalid literal (wanted %s)" word)

let utf8_of_code buf code =
  (* Encode a Unicode scalar value as UTF-8. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_hex4 cur =
  if cur.pos + 4 > String.length cur.text then fail cur "truncated \\u escape";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail cur "invalid \\u escape"
  in
  let v = ref 0 in
  for k = 0 to 3 do
    v := (!v lsl 4) lor digit cur.text.[cur.pos + k]
  done;
  cur.pos <- cur.pos + 4;
  !v

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
       | Some '"' -> Buffer.add_char buf '"'; advance cur
       | Some '\\' -> Buffer.add_char buf '\\'; advance cur
       | Some '/' -> Buffer.add_char buf '/'; advance cur
       | Some 'b' -> Buffer.add_char buf '\b'; advance cur
       | Some 'f' -> Buffer.add_char buf '\012'; advance cur
       | Some 'n' -> Buffer.add_char buf '\n'; advance cur
       | Some 'r' -> Buffer.add_char buf '\r'; advance cur
       | Some 't' -> Buffer.add_char buf '\t'; advance cur
       | Some 'u' ->
         advance cur;
         let hi = parse_hex4 cur in
         let code =
           if hi >= 0xD800 && hi <= 0xDBFF then begin
             (* Surrogate pair. *)
             expect cur '\\';
             expect cur 'u';
             let lo = parse_hex4 cur in
             if lo < 0xDC00 || lo > 0xDFFF then fail cur "unpaired surrogate";
             0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
           end
           else if hi >= 0xDC00 && hi <= 0xDFFF then fail cur "unpaired surrogate"
           else hi
         in
         utf8_of_code buf code
       | Some c -> fail cur (Printf.sprintf "invalid escape \\%c" c)
       | None -> fail cur "truncated escape");
      loop ()
    | Some c when Char.code c < 0x20 -> fail cur "raw control character in string"
    | Some c ->
      Buffer.add_char buf c;
      advance cur;
      loop ()
  in
  loop ();
  Buffer.contents buf

(* The RFC 8259 grammar: an optional minus, then 0 or a digit run
   without a leading zero, then optionally a dot and at least one
   digit, then optionally e/E, an optional sign and at least one
   digit. *)
let parse_number cur =
  let start = cur.pos in
  let is_digit = function Some '0' .. '9' -> true | Some _ | None -> false in
  let digits () =
    if not (is_digit (peek cur)) then fail cur "expected a digit";
    while is_digit (peek cur) do
      advance cur
    done
  in
  if peek cur = Some '-' then advance cur;
  if peek cur = Some '0' then advance cur else digits ();
  let fraction = peek cur = Some '.' in
  if fraction then begin
    advance cur;
    digits ()
  end;
  let exponent = match peek cur with Some ('e' | 'E') -> true | Some _ | None -> false in
  if exponent then begin
    advance cur;
    (match peek cur with Some ('+' | '-') -> advance cur | Some _ | None -> ());
    digits ()
  end;
  let s = String.sub cur.text start (cur.pos - start) in
  let as_float () =
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail cur (Printf.sprintf "invalid number %S" s)
  in
  if fraction || exponent then as_float ()
  else match int_of_string_opt s with Some i -> Int i | None -> as_float ()

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '"' -> String (parse_string cur)
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws cur;
        let key = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance cur;
          List.rev ((key, v) :: acc)
        | _ -> fail cur "expected , or } in object"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> fail cur "expected , or ] in array"
      in
      List (items [])
    end
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %c" c)

let of_string text =
  let cur = { text; pos = 0 } in
  match parse_value cur with
  | v ->
    skip_ws cur;
    if cur.pos <> String.length text then
      Error (Printf.sprintf "trailing garbage at offset %d" cur.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Bool _ | String _ | List _ | Obj _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Null | Bool _ | Float _ | String _ | List _ | Obj _ -> None

let to_string_opt = function
  | String s -> Some s
  | Null | Bool _ | Int _ | Float _ | List _ | Obj _ -> None

let to_bool_opt = function
  | Bool b -> Some b
  | Null | Int _ | Float _ | String _ | List _ | Obj _ -> None

let to_list_opt = function
  | List l -> Some l
  | Null | Bool _ | Int _ | Float _ | String _ | Obj _ -> None
