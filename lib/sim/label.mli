(** Names built from a prefix and non-negative ints, without [Printf]:
    the per-message object names of {!Shard.send} and the per-node
    names of population runs. *)

val int : string -> int -> string
(** [int prefix n] is [Printf.sprintf "%s%d" prefix n].  Raises
    [Invalid_argument] if [n < 0]. *)

val pair : string -> int -> string -> int -> string
(** [pair prefix a sep b] is [Printf.sprintf "%s%d%s%d" prefix a sep b].
    Raises [Invalid_argument] if [a] or [b] is negative. *)
