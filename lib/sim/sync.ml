(* Every blocking op here calls [Engine.prepare], stores the handle
   where the wake will come from, then calls [Engine.await_prepared].
   The reason is ["waitq"] for all of them. *)

module Waitq = struct
  type 'a t = { engine : Engine.t; q : 'a Engine.handle Queue.t }

  let create engine = { engine; q = Queue.create () }

  let wait t =
    let h = Engine.prepare t.engine in
    Queue.add h t.q;
    Engine.await_prepared t.engine ~reason:"waitq" h

  let signal t v =
    if Queue.is_empty t.q then false
    else begin
      Engine.resume t.engine (Queue.take t.q) v;
      true
    end

  let signal_error t exn =
    if Queue.is_empty t.q then false
    else begin
      Engine.resume_error t.engine (Queue.take t.q) exn;
      true
    end

  let broadcast_error t exn =
    let n = Queue.length t.q in
    Queue.iter (fun h -> Engine.resume_error t.engine h exn) t.q;
    Queue.clear t.q;
    n

  let waiters t = Queue.length t.q
end

module Ivar = struct
  type 'a state = Empty | Full of 'a | Failed of exn

  (* The readers waiting for the fill, newest first: most ivars never
     have one, so an empty list costs nothing. *)
  type 'a t = {
    engine : Engine.t;
    mutable state : 'a state;
    mutable readers : 'a Engine.handle list;
  }

  let create engine = { engine; state = Empty; readers = [] }

  (* Oldest reader first, as they blocked. *)
  let rec resume_all e v = function
    | [] -> ()
    | h :: older ->
      resume_all e v older;
      Engine.resume e h v

  let rec fail_all e exn = function
    | [] -> ()
    | h :: older ->
      fail_all e exn older;
      Engine.resume_error e h exn

  let take_readers t =
    let rs = t.readers in
    t.readers <- [];
    rs

  let fill t v =
    match t.state with
    | Empty ->
      t.state <- Full v;
      resume_all t.engine v (take_readers t)
    | Full _ | Failed _ -> invalid_arg "Ivar.fill: already filled"

  let fill_error t exn =
    match t.state with
    | Empty ->
      t.state <- Failed exn;
      fail_all t.engine exn (take_readers t)
    | Full _ | Failed _ -> invalid_arg "Ivar.fill_error: already filled"

  let try_fill t v =
    match t.state with
    | Empty ->
      fill t v;
      true
    | Full _ | Failed _ -> false

  let read t =
    match t.state with
    | Full v -> v
    | Failed exn -> raise exn
    | Empty ->
      let h = Engine.prepare t.engine in
      t.readers <- h :: t.readers;
      Engine.await_prepared t.engine ~reason:"waitq" h

  let is_filled t = match t.state with Empty -> false | _ -> true
  let peek t = match t.state with Full v -> Some v | _ -> None
end

module Mailbox = struct
  type 'a t = {
    items : 'a Queue.t;
    takers : 'a Waitq.t;
    mutable poisoned : exn option;
  }

  let create engine =
    { items = Queue.create (); takers = Waitq.create engine; poisoned = None }

  let put t v =
    if not (Waitq.signal t.takers v) then Queue.add v t.items

  let take t =
    match Queue.take_opt t.items with
    | Some v -> v
    | None -> (
      match t.poisoned with
      | Some exn -> raise exn
      | None -> Waitq.wait t.takers)

  let take_opt t = Queue.take_opt t.items
  let peek_opt t = Queue.peek_opt t.items
  let length t = Queue.length t.items
  let is_empty t = Queue.is_empty t.items

  let poison t exn =
    t.poisoned <- Some exn;
    ignore (Waitq.broadcast_error t.takers exn)
end
