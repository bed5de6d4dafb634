(** Typed remote operations — a thin, statically-typed veneer over
    {!Process.call}/{!Process.serve}.

    LYNX checks message types dynamically because the two sides of a
    link are compiled at disparate times; this module gives the OCaml
    programmer back static types on each side while keeping the dynamic
    check on the wire.  A mismatch between the two sides' [defop]
    declarations is caught at run time exactly as in LYNX, surfacing as
    [Excn.Remote_error] or [Excn.Type_error]. *)

type 'a arg
(** A wire codec for one OCaml type. *)

val unit : unit arg
val bool : bool arg
val int : int arg
val str : string arg

val link : Link.t arg
(** The link end moves to the receiver, as always. *)

val pair : 'a arg -> 'b arg -> ('a * 'b) arg
val list : 'a arg -> 'a list arg
val option : 'a arg -> 'a option arg

type ('req, 'resp) op
(** A named remote operation with typed request and response. *)

val defop : name:string -> req:'req arg -> resp:'resp arg -> ('req, 'resp) op

val name : (_, _) op -> string

val call : Process.t -> Link.t -> ('req, 'resp) op -> 'req -> 'resp
(** Typed remote call; blocks the calling thread until the reply. *)

val serve : Process.t -> Link.t -> ('req, 'resp) op -> ('req -> 'resp) -> unit
(** Registers a typed handler for the operation on this link end and
    opens its request queue. *)
