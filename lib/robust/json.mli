(** A minimal JSON value and its one compact rendering.

    The single writer behind the serving [Stats] reply and the bench
    artifacts.  Rendering is compact (no whitespace) and deterministic:
    object members keep their list order.

    Floats: integral values below 1e15 in magnitude print without a
    fraction ([%.0f]); other finite floats print with the fewest
    significant digits that read back to the same bits; non-finite
    floats print as the strings ["inf"], ["-inf"] and ["nan"], since
    JSON has no literal for them. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
