(** Escaping-correct JSON values.

    Every machine-readable document this code base writes (telemetry
    time-series, run manifests, the BENCH_*.json reports) goes through
    this emitter, so string fields — scenario names, git describe
    output, violation details — can never produce invalid JSON.  A
    small parser rides along so tests and the CI smoke job can validate
    emitted documents without external tools. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of t_float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** emitted in the given key order *)

and t_float = float
(** The emitter's float contract, on which saved artifacts and their
    digests depend, so the bytes are stable across versions:
    - a finite float is written with the first of [%.12g], [%.15g]
      and [%.17g] that reads back as the same float ([%.17g] always
      does), so every float round-trips exactly;
    - a result made only of digits and [-] gets [".0"] appended, so
      it reads back as a [Float]: [2.0] and [-0.0], but [1e+21];
    - [-0.0] keeps its sign;
    - non-finite floats are emitted as [null] (JSON has no NaN).
    [Int]s are written in plain decimal. *)

val float : float -> t
(** [Float], via a guard that keeps the emitter total. *)

val opt : ('a -> t) -> 'a option -> t
(** [None] becomes [Null]. *)

val strings : string list -> t

val escape_string : string -> string
(** The quoted JSON literal for a string: quotes and backslashes
    escaped, control characters as [\u00XX], valid UTF-8 passed
    through. *)

val to_string : ?pretty:bool -> t -> string
(** Compact single line by default; [pretty] indents with two spaces. *)

val to_channel : ?pretty:bool -> out_channel -> t -> unit
(** The bytes of [to_string], written without an intermediate string,
    then a trailing newline. *)

val write_file : ?pretty:bool -> path:string -> t -> unit

(** {2 Reading} *)

val of_string : string -> (t, string) result
(** Strict parser for everything the emitter produces (and standard
    JSON generally).  Numbers follow the RFC 8259 grammar (no leading
    zeros, no bare [.], no [+] sign); those without [.]/[e] that fit
    an [int] decode as [Int].  [\u] escapes take exactly four hex
    digits, and a surrogate must be a high/low pair. *)

val of_file : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val to_float_opt : t -> float option
(** [Int] and [Float] both convert. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
(** Shape-checked accessors ([None] on any other constructor) — the
    scenario-descriptor loader decodes persisted reproductions with
    these instead of pattern-matching inline. *)
