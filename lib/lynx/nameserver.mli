(** A long-lived name server — the kind of system service LYNX was
    designed to talk to (paper §2: communication "between user programs
    and long-lived system servers", for processes "compiled and loaded
    at disparate times").

    A provider registers a service under a string name; a client looks
    the name up and receives a {e private link} to the provider.  The
    private link is manufactured on demand: the name server relays a
    [clone] request to the provider, which creates a fresh link and
    encloses one end in its reply; the server forwards that end to the
    client — so every lookup moves a link end across two hops, the
    mechanism of figure 1 put to everyday use.

    The name server itself is an ordinary LYNX process: run {!body} as a
    process body and hand each participant a link to it (e.g. with
    {!World.link_between}). *)

val body : Process.t -> unit
(** The server loop: serves [register], [lookup] and [list] on every
    link it ever owns.  Runs until the process terminates. *)

val register : Process.t -> ns:Link.t -> name:string -> unit
(** Claims [name] on the server reached via [ns].  The calling process
    must keep serving [clone] on [ns] — {!serve_clones} installs the
    standard handler.  Raises [Excn.Remote_error] if the name is taken. *)

val serve_clones : Process.t -> ns:Link.t -> on_client:(Link.t -> unit) -> unit
(** Installs the provider-side [clone] handler on the registration link:
    each clone manufactures a fresh link, passes the kept end to
    [on_client] (typically: spawn a thread serving it), and returns the
    other end to the name server. *)

val lookup : Process.t -> ns:Link.t -> name:string -> Link.t option
(** Resolves [name] to a fresh private link to its provider; [None] if
    unregistered or if the provider has died. *)

val list_names : Process.t -> ns:Link.t -> string list
(** All currently registered names, sorted. *)
