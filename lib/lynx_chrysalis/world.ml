type Lynx.World.chan += Chan of Channel.t

let create ?(costs = Lynx.Costs.m68000) ?plan engine ~nodes =
  Lynx.World.create ?plan ~costs engine (fun stats faults ->
      let kernel = Chrysalis.Kernel.create engine ~stats ?faults ~processors:nodes () in
      {
        spawn =
          (fun ?daemon ~node ~name k ->
            ignore
              (Chrysalis.Kernel.spawn_process kernel ?daemon ~node ~name (fun pid ->
                   let chan, ops = Channel.make kernel pid ~stats in
                   k (Chan chan) ops)));
        rpc_rtt = Chrysalis.Costs.rpc_rtt (Chrysalis.Kernel.costs kernel);
        bootstrap =
          (fun a b ->
            match (a, b) with
            | Chan ca, Chan cb -> Channel.bootstrap_pair ca cb
            | _ -> invalid_arg "link_between: not a Chrysalis process");
      })
