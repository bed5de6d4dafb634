type Lynx.World.chan += Chan of Channel.t

let create ?(costs = Lynx.Costs.vax) ?kernel_costs ?(signal_budget = true)
    ?plan engine ~nodes =
  Lynx.World.create ?plan ~costs engine (fun stats faults ->
      let kernel = Soda.Kernel.create engine ?costs:kernel_costs ~stats ?faults ~nodes () in
      {
        spawn =
          (fun ?daemon ~node ~name k ->
            ignore
              (Soda.Kernel.spawn_process kernel ?daemon ~node ~name (fun pid ->
                   let chan, ops = Channel.make ~signal_budget kernel pid ~stats in
                   k (Chan chan) ops)));
        rpc_rtt = Soda.Costs.rpc_rtt (Soda.Kernel.costs kernel);
        bootstrap =
          (fun a b ->
            match (a, b) with
            | Chan ca, Chan cb -> Channel.bootstrap_pair ca cb
            | _ -> invalid_arg "link_between: not a SODA process");
      })
