(** Abstract syntax of the mini-IR that target systems are written in.

    The IR plays the role Java bytecode plays for the paper's AutoWatchdog
    prototype: rich enough to host real concurrent system software (I/O,
    locks, queues, shared state, daemon loops), simple enough for
    whole-program static analysis. Environment-touching effects are
    confined to [Op] statements, each tagged with an {!op_kind} — the
    vulnerable-operation classification of §4.1 is a predicate on these
    kinds.

    Every constructor is transparent: the analyses, interpreters, program
    generators and tests all pattern-match freely. This interface exists to
    pin the surface and document it, not to hide structure. *)

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
      (** pure primitive from [Prims]: map_put, checksum, str_of_int, ... *)

(** The effectful instructions a program can issue against its
    environment; the vulnerable-operation analysis classifies these. *)
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
  | Op of {
      kind : op_kind;
      target : string;
          (** names the resource: a disk, net fabric, queue, memory pool or
              global variable *)
      args : expr list;
      bind : string option;
    }
  | Call of { func : string; args : expr list; bind : string option }
  | If of expr * block * block
  | While of expr * block
  | Foreach of string * expr * block
  | Sync of string * block  (** synchronized(lock) [{ ... }] *)
  | Try of block * string * block  (** try b catch (e) [{ handler }] *)
  | Return of expr
  | Assert of expr * string
  | Compute of { cost_ns : int64; note : string }  (** pure CPU work *)
  | Hook of int  (** instrumentation point; no-op until instrumented *)

and stmt = { node : stmt_node; loc : Loc.t }
and block = stmt list

type annot =
  | Long_running  (** function hosts a continuously-executing region *)
  | Vulnerable_annot
      (** developer-tagged as worth monitoring (§4.1) *)

type func = {
  fname : string;
  params : string list;
  body : block;
  annots : annot list;
}

type entry = {
  entry_name : string;
  entry_func : string;
  entry_args : value list;
}

type program = { pname : string; funcs : func list; entries : entry list }

exception Ir_error of string

val find_func : program -> string -> func
(** Raises {!Ir_error} when the function is absent. *)

val has_func : program -> string -> bool

val op_kind_name : op_kind -> string

val vmap_find : string -> (string * 'a) list -> 'a option
(** [List.assoc_opt] with keys compared by [String.equal] instead of
    polymorphic [compare]: the first binding of the key, if any. The
    [VMap] primitives and the request-path readers of maps and key-value
    lists use this family. *)

val vmap_mem : string -> (string * 'a) list -> bool
(** [List.mem_assoc] with [String.equal]. *)

val vmap_remove : string -> (string * 'a) list -> (string * 'a) list
(** [List.remove_assoc] with [String.equal]: drops the first binding of
    the key, copying the entries before it and sharing the tail, so the
    result and its allocation equal the stdlib function's. *)

val copy_value : value -> value
(** Deep copy. Values are persistent except [VBytes], whose buffer must
    never be shared between the main program and a watchdog context (§3.2
    isolation). *)

val value_immutable : value -> bool
(** No [VBytes] anywhere: sharing across the program/watchdog boundary is
    safe, and {!copy_value} would allocate a structurally-new but
    semantically-identical tree for nothing. *)

val value_equal : value -> value -> bool

val render_value : Buffer.t -> value -> unit
(** Canonical rendering into a caller-supplied buffer — the hot-path form
    used by serialisation, value hashing and log formatting. *)

val with_rendered : value -> (Buffer.t -> 'a) -> 'a
(** Render into the per-domain scratch buffer and apply the callback; the
    buffer is valid only for the duration of the call. The
    no-intermediate-string path for content hashing. *)

val value_to_string : value -> string
(** {!render_value} through a per-domain scratch buffer. *)

val pp_value : Format.formatter -> value -> unit
