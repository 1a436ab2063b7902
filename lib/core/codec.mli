(** Wire codec for {!Message.t}: a compact, versioned, line-oriented text
    format with percent-escaping, independent of OCaml's marshaller. One
    message per line; see the implementation header for the grammar. *)

type error = { offset : int; reason : string }

val pp_error : Format.formatter -> error -> unit

(** Current format version (the first field of every message). *)
val version : int

(** Encode to a single line (no trailing newline). *)
val encode : Message.t -> string

(** Decode one line. *)
val decode : string -> (Message.t, error) result

(** @raise Failure on malformed input. *)
val decode_exn : string -> Message.t
