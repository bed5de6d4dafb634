(** The one JSON writer.  Every [--json] output in the repo — run
    artifacts, the paper claims, the static report — is a {!t} printed
    by {!to_string}.  It stays within the subset [bench/compare.exe]
    parses: objects, strings and numbers, no arrays, booleans or null. *)

type t =
  | Num of string  (** a number, already formatted ([%d], [%.3f], ...) *)
  | Str of string  (** a string, escaped when printed *)
  | Obj of (string * t) list  (** an object, fields in order *)

val int : int -> t

val indexed : ('a -> string) -> 'a list -> t
(** A list as an object of strings keyed ["0"], ["1"], ... *)

val document : (string * t) list -> t
(** A top-level object: the [lynx-run/1] schema field, then [fields]. *)

val to_string : t -> string
(** One ["key": value] per line, nested by two spaces, [{}] for an
    empty object, and a final newline. *)
