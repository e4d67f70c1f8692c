(* Pure primitives callable from IR expressions via [Prim (name, args)].
   All of them are deterministic functions of their arguments; effectful
   behaviour is reserved for [Op] statements so that the vulnerability
   analysis sees every effect. *)

open Ast

exception Prim_error of string

let err fmt = Fmt.kstr (fun s -> raise (Prim_error s)) fmt

let as_int = function VInt i -> i | v -> err "expected int, got %a" pp_value v
let as_str = function VStr s -> s | v -> err "expected string, got %a" pp_value v
let as_bytes = function VBytes b -> b | v -> err "expected bytes, got %a" pp_value v
let as_list = function VList l -> l | v -> err "expected list, got %a" pp_value v
let as_map = function VMap m -> m | v -> err "expected map, got %a" pp_value v
let as_bool = function VBool b -> b | v -> err "expected bool, got %a" pp_value v

(* FNV-1a over the printed form: a stable, portable content hash. Hashes
   straight out of the domain's render buffer — no intermediate string. *)
let hash_value v =
  with_rendered v (fun buf ->
      let h = ref 0xcbf29ce484222325L in
      for i = 0 to Buffer.length buf - 1 do
        h := Int64.logxor !h (Int64.of_int (Char.code (Buffer.nth buf i)));
        h := Int64.mul !h 0x100000001b3L
      done;
      Int64.to_int (Int64.logand !h 0x3FFFFFFFFFFFFFFFL))

let apply name args =
  match (name, args) with
  | "str_of_int", [ VInt i ] -> VStr (string_of_int i)
  | "int_of_str", [ VStr s ] -> (
      match int_of_string_opt s with
      | Some i -> VInt i
      | None -> err "int_of_str %S" s)
  | "bytes_of_str", [ VStr s ] -> VBytes (Bytes.of_string s)
  | "str_of_bytes", [ VBytes b ] -> VStr (Bytes.to_string b)
  | "bytes_make", [ VInt n; VStr fill ] ->
      let c = if String.length fill > 0 then fill.[0] else '\000' in
      if n < 0 || n > Sys.max_string_length then err "bytes_make %d" n
      else VBytes (Bytes.make n c)
  | "bytes_cat", [ VBytes a; VBytes b ] -> VBytes (Bytes.cat a b)
  | "checksum", [ VBytes b ] ->
      VInt (Int64.to_int (Int64.logand (Wd_env.Disk.checksum b) 0x3FFFFFFFFFFFFFFFL))
  | "hash", [ v ] -> VInt (hash_value v)
  | "concat", parts -> VStr (String.concat "" (List.map as_str parts))
  | "contains", [ VStr s; VStr sub ] ->
      let n = String.length sub in
      let found = ref false in
      if n = 0 then found := true
      else
        for i = 0 to String.length s - n do
          if String.sub s i n = sub then found := true
        done;
      VBool !found
  | "map_empty", [] -> VMap []
  | "map_put", [ VMap m; VStr k; v ] ->
      VMap ((k, v) :: vmap_remove k m)
  | "map_get", [ VMap m; VStr k ] -> (
      match vmap_find k m with Some v -> v | None -> err "map_get %S" k)
  | "map_get_opt", [ VMap m; VStr k; default ] -> (
      match vmap_find k m with Some v -> v | None -> default)
  | "map_mem", [ VMap m; VStr k ] -> VBool (vmap_mem k m)
  | "map_del", [ VMap m; VStr k ] -> VMap (vmap_remove k m)
  | "map_len", [ VMap m ] -> VInt (List.length m)
  | "map_keys", [ VMap m ] ->
      (* Sorting the pairs by key alone yields the same key list as the
         polymorphic pair order (equal keys print the same whatever their
         values) and allocates exactly what that sort did. *)
      let by_key (a, _) (b, _) = String.compare a b in
      VList (List.map (fun (k, _) -> VStr k) (List.sort by_key m))
  | "list_rev", [ VList l ] -> VList (List.rev l)
  | "list_append", [ VList a; VList b ] -> VList (a @ b)
  | "list_cons", [ v; VList l ] -> VList (v :: l)
  | "list_head", [ VList (v :: _) ] -> v
  | "list_head", [ VList [] ] -> err "list_head []"
  | "list_tail", [ VList (_ :: l) ] -> VList l
  | "list_tail", [ VList [] ] -> err "list_tail []"
  | "list_nth", [ VList _; VInt i ] when i < 0 -> err "list_nth %d" i
  | "list_nth", [ VList l; VInt i ] -> (
      match List.nth_opt l i with Some v -> v | None -> err "list_nth %d" i)
  | "list_mem", [ v; VList l ] -> VBool (List.exists (value_equal v) l)
  | "range", [ VInt n ] -> VList (List.init (max 0 n) (fun i -> VInt i))
  | "min", [ VInt a; VInt b ] -> VInt (min a b)
  | "max", [ VInt a; VInt b ] -> VInt (max a b)
  | "is_sorted", [ VList l ] ->
      let rec check = function
        | VStr a :: (VStr b :: _ as rest) ->
            if String.compare a b <= 0 then check rest else false
        | VInt a :: (VInt b :: _ as rest) -> if a <= b then check rest else false
        | [ _ ] | [] -> true
        | _ -> err "is_sorted: heterogeneous list"
      in
      VBool (check l)
  | "not", [ VBool b ] -> VBool (not b)
  | "serialize", [ v ] -> VStr (value_to_string v)
  | "str_drop", [ VStr s; VInt n ] ->
      if n < 0 then err "str_drop %d" n
      else if n >= String.length s then VStr ""
      else VStr (String.sub s n (String.length s - n))
  | "str_take", [ VStr s; VInt n ] ->
      if n < 0 then err "str_take %d" n
      else VStr (String.sub s 0 (min n (String.length s)))
  | "dirname", [ VStr s ] -> (
      match String.rindex_opt s '/' with
      | Some i -> VStr (String.sub s 0 (i + 1))
      | None -> VStr "")
  | "pad_left", [ VStr s; VInt width; VStr fill ] ->
      let c = if String.length fill > 0 then fill.[0] else '0' in
      if width > Sys.max_string_length then err "pad_left %d" width
      else if String.length s >= width then VStr s
      else VStr (String.make (width - String.length s) c ^ s)
  | "ends_with", [ VBytes b; VBytes suffix ] ->
      let nb = Bytes.length b and ns = Bytes.length suffix in
      VBool (nb >= ns && Bytes.sub b (nb - ns) ns = suffix)
  | _ ->
      err "unknown primitive %s/%d" name (List.length args)

(* Names the validator accepts; kept in sync with [apply]. *)
let known =
  [
    "str_of_int"; "int_of_str"; "bytes_of_str"; "str_of_bytes"; "bytes_make";
    "bytes_cat"; "checksum"; "hash"; "concat"; "contains"; "map_empty";
    "map_put"; "map_get"; "map_get_opt"; "map_mem"; "map_del"; "map_len";
    "map_keys"; "list_rev"; "list_append"; "list_cons"; "list_head";
    "list_tail"; "list_nth"; "list_mem"; "range"; "min"; "max"; "is_sorted";
    "not"; "serialize"; "str_drop"; "str_take"; "dirname"; "ends_with"; "pad_left";
  ]

let is_known name = List.mem name known

let _ = as_bool
let _ = as_map
let _ = as_list
let _ = as_bytes
let _ = as_int
