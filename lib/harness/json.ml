(* A small JSON value and its printer, for the bench snapshot. *)

type t =
  | Bool of bool
  | Int of int
  | Float of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let is_scalar = function
  | List [] | Obj [] -> true
  | List _ | Obj _ -> false
  | Bool _ | Int _ | Float _ | String _ -> true

(* One container, starting at column [indent]: inline when every member's
   [value] is a scalar, else one member per line. *)
let container b indent open_ close value add_member members =
  if members = [] then Buffer.add_string b (open_ ^ close)
  else if List.for_all (fun m -> is_scalar (value m)) members then begin
    Buffer.add_string b (open_ ^ " ");
    List.iteri
      (fun i m ->
        if i > 0 then Buffer.add_string b ", ";
        add_member indent m)
      members;
    Buffer.add_string b (" " ^ close)
  end
  else begin
    let inner = indent + 2 in
    Buffer.add_string b open_;
    List.iteri
      (fun i m ->
        Buffer.add_string b (if i > 0 then ",\n" else "\n");
        Buffer.add_string b (String.make inner ' ');
        add_member inner m)
      members;
    Buffer.add_string b ("\n" ^ String.make indent ' ' ^ close)
  end

let rec add b indent = function
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float (d, x) -> Buffer.add_string b (Printf.sprintf "%.*f" d x)
  | String s -> add_string b s
  | List vs -> container b indent "[" "]" Fun.id (fun i v -> add b i v) vs
  | Obj fields ->
      container b indent "{" "}" snd
        (fun i (k, v) ->
          add_string b k;
          Buffer.add_string b ": ";
          add b i v)
        fields

let to_string v =
  let b = Buffer.create 4096 in
  add b 0 v;
  Buffer.contents b
