(* The repo's one JSON module: flight-recorder traces, bench reports and
   the lint's reports are all built, printed and parsed here.

   The repo deliberately has no JSON dependency; a recursive-descent
   parser and one printer are cheaper than a new package.  Output is
   byte-deterministic: object fields print in exactly the order given,
   and each number has one rendering. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing -------------------------------------------------------------- *)

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no NaN or infinity, and printing OCaml's "nan"/"inf" would
   produce a document no reader (this one included) accepts. *)
let float_to_string f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Json: non-finite number %F" f)
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    (* %.17g round-trips any double; trim to the shortest that does. *)
    let s = Printf.sprintf "%.12g" f in
    if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

(* Compact without [indent]; with it, one item per line, nested [indent]
   spaces deeper than its container. *)
let container buf indent level opening closing emit items =
  let newline depth =
    match indent with
    | None -> ()
    | Some n ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (n * depth) ' ')
  in
  Buffer.add_char buf opening;
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char buf ',';
      newline (level + 1);
      emit item)
    items;
  if not (List.is_empty items) then newline level;
  Buffer.add_char buf closing

let rec print buf indent level v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s -> add_quoted buf s
  | List items ->
      container buf indent level '[' ']' (print buf indent (level + 1)) items
  | Obj fields ->
      container buf indent level '{' '}'
        (fun (k, item) ->
          add_quoted buf k;
          Buffer.add_string buf (if Option.is_some indent then ": " else ":");
          print buf indent (level + 1) item)
        fields

let to_buffer buf v = print buf None 0 v

let to_string ?indent v =
  let buf = Buffer.create 256 in
  print buf indent 0 v;
  if Option.is_some indent then Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parsing --------------------------------------------------------------- *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st =
  if st.pos < String.length st.src then Some st.src.[st.pos] else None

let at st c = match peek st with Some got -> Char.equal got c | None -> false

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  if at st c then advance st else error st (Printf.sprintf "expected '%c'" c)

let expect_word st w v =
  let n = String.length w in
  if
    st.pos + n <= String.length st.src
    && String.equal (String.sub st.src st.pos n) w
  then (
    st.pos <- st.pos + n;
    v)
  else error st (Printf.sprintf "expected %S" w)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> error st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if st.pos + 4 > String.length st.src then
                  error st "truncated \\u escape";
                let hex = String.sub st.src st.pos 4 in
                st.pos <- st.pos + 4;
                let is_hex = function
                  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                  | _ -> false
                in
                if not (String.for_all is_hex hex) then
                  error st "bad \\u escape";
                let code = int_of_string ("0x" ^ hex) in
                (* The printer writes every byte >= 0x80 raw, so a \u
                   escape beyond ASCII never comes from this repo. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else error st "non-ASCII \\u escape unsupported"
            | _ -> error st "unknown escape");
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

(* A literal without fraction or exponent is an [Int]; anything else a
   [Float].  Either must be representable: an integer beyond [int] or a
   float that overflows to infinity is an error, never a silent clamp. *)
let parse_number st =
  let start = st.pos in
  let digits () =
    let from = st.pos in
    while match peek st with Some '0' .. '9' -> true | _ -> false do
      advance st
    done;
    if st.pos = from then error st "expected digit"
  in
  if at st '-' then advance st;
  digits ();
  let integral = ref true in
  if at st '.' then begin
    integral := false;
    advance st;
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      integral := false;
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      digits ()
  | _ -> ());
  let lit = String.sub st.src start (st.pos - start) in
  if !integral then
    match int_of_string_opt lit with
    | Some n -> Int n
    | None -> error st "number out of range"
  else
    match float_of_string_opt lit with
    | Some f when Float.is_finite f -> Float f
    | _ -> error st "number out of range"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some 'n' -> expect_word st "null" Null
  | Some 't' -> expect_word st "true" (Bool true)
  | Some 'f' -> expect_word st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' -> List (parse_seq st ']' parse_value)
  | Some '{' ->
      Obj
        (parse_seq st '}' (fun st ->
             skip_ws st;
             let k = parse_string st in
             skip_ws st;
             expect st ':';
             (k, parse_value st)))
  | Some c -> error st (Printf.sprintf "unexpected character '%c'" c)

(* The items of an array or object, the opening bracket still unread. *)
and parse_seq : 'a. state -> char -> (state -> 'a) -> 'a list =
 fun st closing item ->
  advance st;
  skip_ws st;
  if at st closing then (
    advance st;
    [])
  else
    let rec items acc =
      let v = item st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          items (v :: acc)
      | Some c when Char.equal c closing ->
          advance st;
          List.rev (v :: acc)
      | _ -> error st (Printf.sprintf "expected ',' or '%c'" closing)
    in
    items []

let of_string s =
  let st = { src = s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos < String.length s then error st "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors ------------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_int = function Int n -> Some n | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
