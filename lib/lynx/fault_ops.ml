(** Fault decoration of a backend's {!Backend.ops} — the uniform,
    backend-agnostic injection seam.

    Kernel-level injection (inside the three transports) exercises each
    kernel's own guards; this layer exercises the {e runtime's}
    screening on every backend identically: a frame taken from the
    backend may be withheld for a while (a loss the lower layer
    retransmits, a delay spike, or the victim's crash outage) or
    duplicated (redelivered once more a little later), so LYNX sees late
    replies, retransmitted requests and duplicate deliveries no matter
    which kernel is underneath.

    Frames that carry enclosures are exempt: a link end moves exactly
    once, and replaying or stalling the frame that carries it would
    break link-end conservation below the layer responsible for it. *)

open Sim

let rx_outage_held = Stats.key "faults.rx_outage_held"

let rec pending_has link kind = function
  | [] -> false
  | ((l, k, _) : int * Backend.kind * Backend.rx) :: rest ->
    (l = link && k = kind) || pending_has link kind rest

let wrap eng ~stats inj ?victim (ops : Backend.ops) : Backend.ops =
  (* Withheld/duplicated frames park here until their release time,
     then reappear via [b_ready]/[b_take] and a doorbell ring. *)
  let pending : (int * Backend.kind * Backend.rx) list ref = ref [] in
  let shut = ref false in
  (* Event-object names, built once per link rather than per frame. *)
  let names : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let link_name link =
    try Hashtbl.find names link
    with Not_found ->
      let name = Printf.sprintf "lynx.l%d" link in
      Hashtbl.add names link name;
      name
  in
  let release entry =
    if not !shut then begin
      pending := !pending @ [ entry ];
      Sync.Mailbox.put ops.Backend.b_doorbell ()
    end
  in
  let take_pending ~link ~kind =
    let rec split acc = function
      | [] -> None
      | ((l, k, rx) :: rest : (int * Backend.kind * Backend.rx) list)
        when l = link && k = kind ->
        pending := List.rev_append acc rest;
        Some rx
      | e :: rest -> split (e :: acc) rest
    in
    split [] !pending
  in
  let b_ready ~link ~kind =
    ops.Backend.b_ready ~link ~kind || pending_has link kind !pending
  in
  let b_take ~link ~kind =
    match take_pending ~link ~kind with
    | Some rx -> Some rx
    | None -> (
      match ops.Backend.b_take ~link ~kind with
      | None -> None
      | Some rx ->
        if rx.Backend.rx_enclosures <> [] then Some rx
        else begin
          let outage =
            match victim with
            | Some vid -> Faults.Injector.outage inj vid
            | None -> None
          in
          match outage with
          | Some lag ->
            (* The process is down: nothing is delivered until restart. *)
            Stats.incr stats rx_outage_held;
            Engine.schedule_after eng lag (fun () -> release (link, kind, rx));
            None
          | None -> (
            match
              Faults.Injector.rx_verdict inj ~obj:(link_name link)
                ~op:rx.Backend.rx_op
            with
            | Faults.Injector.Pass -> Some rx
            | Faults.Injector.Hold lag ->
              Engine.schedule_after eng lag (fun () ->
                  release (link, kind, rx));
              None
            | Faults.Injector.Dup lag ->
              Engine.schedule_after eng lag (fun () ->
                  release (link, kind, rx));
              Some rx)
        end)
  in
  let b_shutdown () =
    shut := true;
    pending := [];
    ops.Backend.b_shutdown ()
  in
  { ops with Backend.b_ready; b_take; b_shutdown }
