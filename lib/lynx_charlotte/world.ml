(** Convenience harness: LYNX processes on a simulated Crystal/Charlotte
    machine. *)

type t = {
  kernel : Charlotte.Kernel.t;
  sts : Sim.Stats.t;
  costs : Lynx.Costs.t;
  reply_acks : bool;
      (** enable the §3.2.2 top-level reply acknowledgments (an
          ablation: the paper rejected them as too expensive) *)
  inj : Faults.Injector.t option;
      (** end-to-end fault injection at the ops seam (ambient plan) *)
}

type member = {
  m_chan : Channel.t Sim.Sync.Ivar.t;
  m_process : Lynx.Process.t Sim.Sync.Ivar.t;
  m_pid : Charlotte.Types.pid Sim.Sync.Ivar.t;
}

let create ?(costs = Lynx.Costs.vax) ?kernel_costs ?(reply_acks = false) ?stats
    engine ~nodes =
  let sts = match stats with Some s -> s | None -> Sim.Stats.create () in
  {
    kernel = Charlotte.Kernel.create engine ?costs:kernel_costs ~stats:sts ~nodes ();
    sts;
    costs;
    reply_acks;
    inj = Faults.Injector.of_ambient engine ~stats:sts;
  }

let kernel t = t.kernel
let stats t = t.sts
let engine t = Charlotte.Kernel.engine t.kernel

let bodies_screened = Sim.Stats.key "lynx.bodies_screened"

let spawn t ?daemon ~node ~name body =
  let eng = engine t in
  let m =
    {
      m_chan = Sim.Sync.Ivar.create eng;
      m_process = Sim.Sync.Ivar.create eng;
      m_pid = Sim.Sync.Ivar.create eng;
    }
  in
  ignore
    (Charlotte.Kernel.spawn_process t.kernel ?daemon ~node ~name (fun pid ->
         let chan, ops =
           Channel.make ~reply_acks:t.reply_acks t.kernel pid ~stats:t.sts
         in
         (* Under an ambient fault plan: decorate the ops seam, arm the
            runtime's screening, and make this process a crash
            candidate.  A screened body failing with a clean LYNX
            exception (timeout, destroyed link) ends quietly — that is
            the "cleanly refused" outcome chaos runs assert on. *)
         let screening =
           Option.map
             (Faults.Plan.floor_screening
             ~rtt:(Charlotte.Costs.rpc_rtt (Charlotte.Kernel.costs t.kernel)))
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
         Sim.Sync.Ivar.fill m.m_pid pid;
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
    parent process would normally provide.  Call from a fiber. *)
let link_between t ma mb =
  let ca = Sim.Sync.Ivar.read ma.m_chan and cb = Sim.Sync.Ivar.read mb.m_chan in
  let pa = Sim.Sync.Ivar.read ma.m_process
  and pb = Sim.Sync.Ivar.read mb.m_process in
  let pid_a = Sim.Sync.Ivar.read ma.m_pid and pid_b = Sim.Sync.Ivar.read mb.m_pid in
  match Charlotte.Kernel.make_link t.kernel pid_a with
  | None -> invalid_arg "link_between: dead process"
  | Some (e0, e1) ->
    Charlotte.Kernel.transfer_end t.kernel e1 ~to_:pid_b;
    let ha = Channel.adopt_end ca e0 in
    let hb = Channel.adopt_end cb e1 in
    (Lynx.Process.adopt_link pa ha, Lynx.Process.adopt_link pb hb)

let process m = Sim.Sync.Ivar.read m.m_process
