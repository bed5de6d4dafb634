(** Convenience harness: LYNX processes on a simulated Butterfly. *)

type t = {
  kernel : Chrysalis.Kernel.t;
  sts : Sim.Stats.t;
  costs : Lynx.Costs.t;
  inj : Faults.Injector.t option;
      (** end-to-end fault injection at the ops seam (ambient plan) *)
}

(** A spawned LYNX process; the ivars fill once the process has
    initialised inside its fiber. *)
type member = {
  m_chan : Channel.t Sim.Sync.Ivar.t;
  m_process : Lynx.Process.t Sim.Sync.Ivar.t;
}

let create ?(costs = Lynx.Costs.m68000) ?stats engine ~nodes =
  let sts = match stats with Some s -> s | None -> Sim.Stats.create () in
  {
    kernel = Chrysalis.Kernel.create engine ~stats:sts ~processors:nodes ();
    sts;
    costs;
    inj = Faults.Injector.of_ambient engine ~stats:sts;
  }

let kernel t = t.kernel
let stats t = t.sts
let engine t = Chrysalis.Kernel.engine t.kernel

let bodies_screened = Sim.Stats.key "lynx.bodies_screened"

(** Starts a LYNX process on [node].  The body runs as the process's
    main thread; when it returns, the process terminates and destroys
    its links. *)
let spawn t ?daemon ~node ~name body =
  let eng = engine t in
  let m =
    { m_chan = Sim.Sync.Ivar.create eng; m_process = Sim.Sync.Ivar.create eng }
  in
  ignore
    (Chrysalis.Kernel.spawn_process t.kernel ?daemon ~node ~name (fun pid ->
         let chan, ops = Channel.make t.kernel pid ~stats:t.sts in
         (* See Lynx_charlotte.World.spawn: ops decoration, screening
            and crash candidacy under an ambient fault plan. *)
         let screening =
           Option.map
             (Faults.Plan.floor_screening
             ~rtt:(Chrysalis.Costs.rpc_rtt (Chrysalis.Kernel.costs t.kernel)))
             (Option.bind t.inj Faults.Injector.screening)
         in
         let victim =
           Option.map (fun inj -> Faults.Injector.register_victim inj ~name) t.inj
         in
         let ops =
           match t.inj with
           | None -> ops
           | Some inj -> Lynx.Fault_ops.wrap eng ~stats:t.sts inj ?victim ops
         in
         let p =
           Lynx.Process.make eng ~name ~costs:t.costs ~stats:t.sts ?screening ops
         in
         Sim.Sync.Ivar.fill m.m_chan chan;
         Sim.Sync.Ivar.fill m.m_process p;
         Fun.protect
           ~finally:(fun () -> Lynx.Process.finish p)
           (fun () ->
             if t.inj = None then body p
             else
               try body p
               with e when Lynx.Excn.is_lynx e ->
                 Sim.Stats.incr t.sts bodies_screened)));
  m

(** Creates a link with one end in each process — the bootstrap link a
    parent or name server would normally provide.  Must be called from a
    fiber; blocks until both processes are initialised. *)
let link_between _t ma mb =
  let ca = Sim.Sync.Ivar.read ma.m_chan and cb = Sim.Sync.Ivar.read mb.m_chan in
  let pa = Sim.Sync.Ivar.read ma.m_process
  and pb = Sim.Sync.Ivar.read mb.m_process in
  let ha, hb = Channel.bootstrap_pair ca cb in
  (Lynx.Process.adopt_link pa ha, Lynx.Process.adopt_link pb hb)

let process m = Sim.Sync.Ivar.read m.m_process
