type send_mode = Ordered | Unordered | Final

type kind =
  | Spawn of { fid : int; name : string }
  | Crash of { fid : int; name : string; error : string }
  | Note of string
  | Block of { reason : string }
  | Send of { obj : string; op : string; mode : send_mode }
  | Receive of { obj : string; op : string }
  | Signal of { obj : string; woke : bool }
  | Signal_seen of { obj : string }
  | Wait of { obj : string }
  | Link_move of { obj : string }
  | Drop of { obj : string; op : string }
  | Fault of { what : string; obj : string }

type t = {
  ev_time : Time.t;
  ev_fiber : int;
  ev_clock : Vclock.t;
  ev_kind : kind;
}

let apply f ev = f ev.ev_time ev.ev_fiber ev.ev_clock ev.ev_kind

let placeholder =
  { ev_time = Time.zero; ev_fiber = -1; ev_clock = Vclock.empty; ev_kind = Note "" }

type memo = kind array

let memo n = Array.make n (Note "")

let send_kind memo i ~obj ~op ~mode =
  match memo.(i) with
  | Send { obj = o; op = p; mode = m } as k
    when o == obj && String.equal p op && m == mode ->
    k
  | _ ->
    let k = Send { obj; op; mode } in
    memo.(i) <- k;
    k

let receive_kind memo i ~obj ~op =
  match memo.(i) with
  | Receive { obj = o; op = p } as k when o == obj && String.equal p op -> k
  | _ ->
    let k = Receive { obj; op } in
    memo.(i) <- k;
    k

let obj t =
  match t.ev_kind with
  | Send { obj; _ }
  | Receive { obj; _ }
  | Signal { obj; _ }
  | Signal_seen { obj }
  | Wait { obj }
  | Link_move { obj }
  | Drop { obj; _ }
  | Fault { obj; _ } ->
    Some obj
  | Spawn _ | Crash _ | Note _ | Block _ -> None

(* Stable small integers for the cheap event-stream fingerprint the
   engine folds incrementally; changing an existing tag invalidates
   stored hashes. *)
let kind_tag = function
  | Spawn _ -> 0
  | Crash _ -> 1
  | Note _ -> 2
  | Block _ -> 3
  | Send _ -> 4
  | Receive _ -> 5
  | Signal { woke = false; _ } -> 6
  | Signal { woke = true; _ } -> 7
  | Signal_seen _ -> 8
  | Wait _ -> 9
  | Link_move _ -> 10
  | Drop _ -> 11
  | Fault _ -> 12

let kind_to_string = function
  | Spawn { fid; name } -> Printf.sprintf "spawn #%d %s" fid name
  | Crash { fid; name; error } ->
    Printf.sprintf "crash #%d %s: %s" fid name error
  | Note msg -> Printf.sprintf "note %s" msg
  | Block { reason } -> Printf.sprintf "block %s" reason
  | Send { obj; op; mode } ->
    Printf.sprintf "send %s op=%s%s" obj op
      (match mode with Unordered -> " unordered" | Ordered | Final -> "")
  | Receive { obj; op } -> Printf.sprintf "receive %s op=%s" obj op
  | Signal { obj; woke } ->
    Printf.sprintf "signal %s %s" obj (if woke then "woke" else "latched")
  | Signal_seen { obj } -> Printf.sprintf "signal-seen %s" obj
  | Wait { obj } -> Printf.sprintf "wait %s" obj
  | Link_move { obj } -> Printf.sprintf "link-move %s" obj
  | Drop { obj; op } -> Printf.sprintf "drop %s op=%s" obj op
  | Fault { what; obj } -> Printf.sprintf "fault %s %s" what obj

module For_tests = struct
  let describe t =
    Printf.sprintf "[%.3fms #%d %s] %s" (Time.to_ms t.ev_time) t.ev_fiber
      (Vclock.to_string t.ev_clock)
      (kind_to_string t.ev_kind)
end
