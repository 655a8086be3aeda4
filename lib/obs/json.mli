(** Minimal JSON values: a parser and a compact printer.

    The observability layer emits JSON ({!Export}) and several tools need
    to read it back — the exporter round-trip tests, the run ledger's
    readers ([mapqn ledger], [mapqn doctor]), and perfbench, which
    parses its pass records and compares two suite outputs. This module is
    deliberately small (no streaming, no precise integer type: numbers
    are [float], like the exporters produce) and, like the rest of
    [Mapqn_obs], depends on nothing beyond the standard library. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list  (** insertion order preserved *)

val parse : string -> (t, string) result
(** Parse one JSON document. The error string carries a character
    offset. Trailing whitespace is allowed, trailing content is not. *)

val parse_exn : string -> t
(** Like {!parse}; raises [Failure]. *)

val to_string : t -> string
(** Compact (single-line) rendering. Floats print in shortest form that
    round-trips; non-finite floats render as [null] (JSON has no
    representation for them). *)

(** {1 Accessors}

    All partial accessors return [None] on a kind mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an [Object]. *)

val get_float : t -> float option

val get_int : t -> int option
(** [Number] with an integral value *)

val get_string : t -> string option
val get_list : t -> t list option
val get_bool : t -> bool option

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes) — shared with the
    other renderers of this library. *)
