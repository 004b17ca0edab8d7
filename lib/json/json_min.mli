(** The repo's only JSON reader and writer. Every artifact ([BENCH_*.json],
    trace exports, certificates, flight and probe dumps) and every
    protocol line is built as a {!t} and spelled by {!render}, so escape
    and number spelling are decided here and nowhere else. Dependency-free.

    Reading: numbers are floats; objects keep key order; non-ASCII bytes
    in strings pass through verbatim. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val of_string : string -> t
val of_file : string -> t

(** [render v] is [v] as compact one-line JSON (no newlines: control
    characters in strings are escaped), suitable for newline-delimited
    protocols. [of_string (render v) = v] for any [v] whose numbers are
    finite; non-finite floats render as [null]. Integral floats render
    without a decimal point. *)
val render : t -> string

val int : int -> t
(** [int n] is [Num (float_of_int n)]. *)

val write_file : string -> t list -> unit
(** [write_file path vs] writes each of [vs], rendered, on a line of its
    own, to [path] atomically: into a temp file beside [path], then
    renamed over it, so a reader never sees a half-written file. On
    failure the temp file is removed, [path] keeps its previous
    contents, and the exception propagates. *)

val member : string -> t -> t option
val to_string : t -> string option
val to_float : t -> float option
val to_list : t -> t list option
