(** A small JSON value and its printer, for the bench snapshot.

    Numbers are printed as the value says: [Float (d, x)] always with [d]
    decimal places, so a field keeps its precision from run to run. A
    container whose members are all scalars or empty containers prints on
    one line; any other container puts one member per line, indented by
    two spaces per level. *)

type t =
  | Bool of bool
  | Int of int
  | Float of int * float  (** decimal places, value *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields in print order *)

val to_string : t -> string
(** The document, without a trailing newline. In strings, the double
    quote, the backslash and every control character are escaped. *)
