(* Abstract syntax of the mini-IR that target systems are written in.

   The IR plays the role Java bytecode plays for the paper's AutoWatchdog
   prototype: a representation rich enough to host real concurrent system
   software (I/O, locks, queues, shared state, daemon loops) and simple
   enough for whole-program static analysis. Environment-touching effects
   are confined to [Op] statements, each tagged with an [op_kind] — the
   vulnerability classification of §4.1 is a predicate on these kinds. *)

type value =
  | VUnit
  | VBool of bool
  | VInt of int
  | VStr of string
  | VBytes of Bytes.t
  | VList of value list
  | VPair of value * value
  | VMap of (string * value) list

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Concat

type unop = Not | Neg | Len

type expr =
  | Const of value
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Pair of expr * expr
  | Fst of expr
  | Snd of expr
  | Prim of string * expr list
      (* pure primitive from [Prims]: map_put, checksum, str_of_int, ... *)

(* Operation kinds: the effectful instructions the program can issue against
   its environment. The vulnerable-operation analysis classifies these. *)
type op_kind =
  | Disk_write
  | Disk_append
  | Disk_read
  | Disk_sync
  | Disk_delete
  | Disk_exists
  | Disk_list
  | Net_send
  | Net_recv
  | Queue_put
  | Queue_get
  | Mem_alloc
  | Mem_free
  | State_get
  | State_set
  | Sleep_op
  | Log_op

type stmt_node =
  | Let of string * expr
  | Assign of string * expr
  | Op of { kind : op_kind; target : string; args : expr list; bind : string option }
      (* [target] names the resource: a disk, net fabric, queue, memory pool
         or global variable. *)
  | Call of { func : string; args : expr list; bind : string option }
  | If of expr * block * block
  | While of expr * block
  | Foreach of string * expr * block
  | Sync of string * block  (* synchronized(lock) { ... } *)
  | Try of block * string * block  (* try b catch (e) { handler } *)
  | Return of expr
  | Assert of expr * string
  | Compute of { cost_ns : int64; note : string }  (* pure CPU work *)
  | Hook of int  (* instrumentation point; no-op until instrumented *)

and stmt = { node : stmt_node; loc : Loc.t }
and block = stmt list

type annot =
  | Long_running   (* function hosts a continuously-executing region *)
  | Vulnerable_annot  (* developer-tagged as worth monitoring (§4.1) *)

type func = {
  fname : string;
  params : string list;
  body : block;
  annots : annot list;
}

type entry = { entry_name : string; entry_func : string; entry_args : value list }

type program = { pname : string; funcs : func list; entries : entry list }

exception Ir_error of string

let find_func p name =
  match List.find_opt (fun f -> f.fname = name) p.funcs with
  | Some f -> f
  | None -> raise (Ir_error (Fmt.str "program %s: no function %s" p.pname name))

let has_func p name = List.exists (fun f -> f.fname = name) p.funcs

let op_kind_name = function
  | Disk_write -> "disk_write"
  | Disk_append -> "disk_append"
  | Disk_read -> "disk_read"
  | Disk_sync -> "disk_sync"
  | Disk_delete -> "disk_delete"
  | Disk_exists -> "disk_exists"
  | Disk_list -> "disk_list"
  | Net_send -> "net_send"
  | Net_recv -> "net_recv"
  | Queue_put -> "queue_put"
  | Queue_get -> "queue_get"
  | Mem_alloc -> "mem_alloc"
  | Mem_free -> "mem_free"
  | State_get -> "state_get"
  | State_set -> "state_set"
  | Sleep_op -> "sleep"
  | Log_op -> "log"

(* VMap key scans. [List.assoc] and friends test keys with polymorphic
   [compare], one [caml_compare] C call per entry; these compare with
   [String.equal]. Otherwise they are the stdlib functions: first match
   wins, and [vmap_remove] copies the prefix before the removed entry and
   shares the rest, so the lists and the allocation are the same. *)
let rec vmap_find k = function
  | [] -> None
  | (a, v) :: l -> if String.equal a k then Some v else vmap_find k l

let rec vmap_mem k = function
  | [] -> false
  | (a, _) :: l -> String.equal a k || vmap_mem k l

let rec vmap_remove k = function
  | [] -> []
  | ((a, _) as pair) :: l ->
      if String.equal a k then l else pair :: vmap_remove k l

(* Deep copy: values are persistent except VBytes, whose buffer must not be
   shared between the main program and a watchdog context (§3.2 isolation). *)
let rec copy_value = function
  | (VUnit | VBool _ | VInt _ | VStr _) as v -> v
  | VBytes b -> VBytes (Bytes.copy b)
  | VList vs -> VList (List.map copy_value vs)
  | VPair (a, b) -> VPair (copy_value a, copy_value b)
  | VMap kvs -> VMap (List.map (fun (k, v) -> (k, copy_value v)) kvs)

(* A value with no VBytes anywhere is persistent: sharing it across the
   program/watchdog boundary is safe and [copy_value] would return a
   structurally-new but semantically-identical tree for nothing. *)
let rec value_immutable = function
  | VUnit | VBool _ | VInt _ | VStr _ -> true
  | VBytes _ -> false
  | VList vs -> List.for_all value_immutable vs
  | VPair (a, b) -> value_immutable a && value_immutable b
  | VMap kvs -> List.for_all (fun (_, v) -> value_immutable v) kvs

let rec value_equal a b =
  match (a, b) with
  | VUnit, VUnit -> true
  | VBool x, VBool y -> x = y
  | VInt x, VInt y -> x = y
  | VStr x, VStr y -> String.equal x y
  | VBytes x, VBytes y -> Bytes.equal x y
  | VList xs, VList ys ->
      List.length xs = List.length ys && List.for_all2 value_equal xs ys
  | VPair (a1, a2), VPair (b1, b2) -> value_equal a1 b1 && value_equal a2 b2
  | VMap xs, VMap ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && value_equal v1 v2)
           xs ys
  | (VUnit | VBool _ | VInt _ | VStr _ | VBytes _ | VList _ | VPair _ | VMap _), _
    ->
      false

(* Canonical rendering, byte-identical to the historical Fmt-based printer
   (which emitted no break hints, so flat Buffer output matches). This is
   the hot-path form: [serialize], [hash_value] and log formatting all
   funnel through one Buffer instead of a Format machine per value. [%S]
   is by definition ["\"" ^ String.escaped s ^ "\""], and [String.escaped]
   returns its argument unchanged (no copy) when nothing needs escaping. *)
let rec render_value buf = function
  | VUnit -> Buffer.add_string buf "()"
  | VBool true -> Buffer.add_string buf "true"
  | VBool false -> Buffer.add_string buf "false"
  | VInt i -> Buffer.add_string buf (string_of_int i)
  | VStr s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (String.escaped s);
      Buffer.add_char buf '"'
  | VBytes b ->
      if Bytes.length b <= 16 then begin
        Buffer.add_string buf "bytes\"";
        Buffer.add_string buf (String.escaped (Bytes.to_string b));
        Buffer.add_char buf '"'
      end
      else begin
        Buffer.add_string buf "bytes<";
        Buffer.add_string buf (string_of_int (Bytes.length b));
        Buffer.add_char buf '>'
      end
  | VList vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf "; ";
          render_value buf v)
        vs;
      Buffer.add_char buf ']'
  | VPair (a, b) ->
      Buffer.add_char buf '(';
      render_value buf a;
      Buffer.add_string buf ", ";
      render_value buf b;
      Buffer.add_char buf ')'
  | VMap kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf k;
          Buffer.add_char buf '=';
          render_value buf v)
        kvs;
      Buffer.add_char buf '}'

(* Per-domain scratch buffer: rendering never re-enters itself (the
   renderer calls no user code), so one buffer per domain suffices. *)
let render_buf_key = Domain.DLS.new_key (fun () -> Buffer.create 256)

(* Render into the domain scratch buffer and hand it to [f] — the
   no-intermediate-string path content hashing uses. The buffer is only
   valid inside [f]. *)
let with_rendered v f =
  let buf = Domain.DLS.get render_buf_key in
  Buffer.clear buf;
  render_value buf v;
  f buf

let value_to_string v =
  let buf = Domain.DLS.get render_buf_key in
  Buffer.clear buf;
  render_value buf v;
  let s = Buffer.contents buf in
  (* Don't let one huge value pin a large backing array for the domain. *)
  if Buffer.length buf > 65536 then Buffer.reset buf;
  s

let pp_value ppf v = Format.pp_print_string ppf (value_to_string v)
