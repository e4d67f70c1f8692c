(** Named metrics and the result line. *)

type t = private { name : string; unit_ : string; value : float }

val valid_name : string -> bool
(** 1 to 64 of [A-Za-z0-9_.-], starting with a letter or digit. *)

val make : string -> string -> float -> t
(** [make name unit value]. Raises [Invalid_argument] on an invalid name or
    a non-finite value. *)

val json_string : string -> string

val number : float -> string
(** A JSON number with every digit of the float (round-trip precision). *)

val result_line :
  correct:bool -> attempted:int -> failed:int -> t list -> string
(** The final stdout line:
    [{"correct": _, "attempted": _, "failed": _, "metrics": {name: {"value":
    _, "unit": _}, ...}}]. Raises [Invalid_argument] on a repeated name. *)
