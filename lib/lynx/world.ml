type chan = ..

type kernel = {
  spawn :
    ?daemon:bool -> node:int -> name:string -> (chan -> Backend.ops -> unit) -> unit;
  rpc_rtt : Sim.Time.t;
  bootstrap : chan -> chan -> int * int;
}

type t = {
  eng : Sim.Engine.t;
  sts : Sim.Stats.t;
  costs : Costs.t;
  kernel : kernel;
  inj : Faults.Injector.t option;
      (** end-to-end fault injection at the ops seam, from the plan *)
}

type member = {
  m_chan : chan Sim.Sync.Ivar.t;
  m_process : Process.t Sim.Sync.Ivar.t;
}

(* Draw order: the world's injector splits the engine's RNG (and
   schedules its crash) first, the kernel's second, and only then is the
   kernel built.  Every faulted events hash depends on it. *)
let create ?plan ~costs eng make =
  let sts = Sim.Stats.create () in
  match plan with
  | None -> { eng; sts; costs; kernel = make sts None; inj = None }
  | Some plan ->
    let inj = Faults.Injector.create eng ~stats:sts plan in
    let kernel_inj = Faults.Injector.create eng ~stats:sts plan in
    { eng; sts; costs; kernel = make sts (Some kernel_inj); inj = Some inj }

let stats t = t.sts

let bodies_screened = Sim.Stats.key "lynx.bodies_screened"

let spawn t ?daemon ~node ~name body =
  let m =
    { m_chan = Sim.Sync.Ivar.create t.eng; m_process = Sim.Sync.Ivar.create t.eng }
  in
  t.kernel.spawn ?daemon ~node ~name (fun chan ops ->
      (* Under a fault plan: decorate the ops seam, arm the
         runtime's screening, and make this process a crash candidate.
         A screened body failing with a clean LYNX exception (timeout,
         destroyed link) ends quietly — that is the "cleanly refused"
         outcome chaos runs assert on. *)
      let screening =
        Option.map
          (Faults.Plan.floor_screening ~rtt:t.kernel.rpc_rtt)
          (Option.bind t.inj Faults.Injector.screening)
      in
      let victim =
        Option.map (fun inj -> Faults.Injector.register_victim inj ~name) t.inj
      in
      let ops =
        match t.inj with
        | None -> ops
        | Some inj -> Fault_ops.wrap t.eng ~stats:t.sts inj ?victim ops
      in
      let p = Process.make t.eng ~name ~costs:t.costs ~stats:t.sts ?screening ops in
      Sim.Sync.Ivar.fill m.m_chan chan;
      Sim.Sync.Ivar.fill m.m_process p;
      Fun.protect
        ~finally:(fun () -> Process.finish p)
        (fun () ->
          if t.inj = None then body p
          else
            try body p
            with e when Excn.is_lynx e -> Sim.Stats.incr t.sts bodies_screened));
  m

let link_between t ma mb =
  let ca = Sim.Sync.Ivar.read ma.m_chan and cb = Sim.Sync.Ivar.read mb.m_chan in
  let pa = Sim.Sync.Ivar.read ma.m_process
  and pb = Sim.Sync.Ivar.read mb.m_process in
  let ha, hb = t.kernel.bootstrap ca cb in
  (Process.adopt_link pa ha, Process.adopt_link pb hb)

let process m = Sim.Sync.Ivar.read m.m_process
