type Lynx.World.chan += Chan of Channel.t * Charlotte.Types.pid

let create ?(costs = Lynx.Costs.vax) ?kernel_costs ?(reply_acks = false) ?plan
    engine ~nodes =
  Lynx.World.create ?plan ~costs engine (fun stats faults ->
      let kernel =
        Charlotte.Kernel.create engine ?costs:kernel_costs ~stats ?faults ~nodes ()
      in
      {
        spawn =
          (fun ?daemon ~node ~name k ->
            ignore
              (Charlotte.Kernel.spawn_process kernel ?daemon ~node ~name (fun pid ->
                   let chan, ops = Channel.make ~reply_acks kernel pid ~stats in
                   k (Chan (chan, pid)) ops)));
        rpc_rtt = Charlotte.Costs.rpc_rtt (Charlotte.Kernel.costs kernel);
        (* Charlotte links are born in one process: make it in [a], then
           hand its far end to [b]. *)
        bootstrap =
          (fun a b ->
            match (a, b) with
            | Chan (ca, pid_a), Chan (cb, pid_b) -> (
              match Charlotte.Kernel.make_link kernel pid_a with
              | None -> invalid_arg "link_between: dead process"
              | Some (e0, e1) ->
                Charlotte.Kernel.transfer_end kernel e1 ~to_:pid_b;
                let ha = Channel.adopt_end ca e0 in
                let hb = Channel.adopt_end cb e1 in
                (ha, hb))
            | _ -> invalid_arg "link_between: not a Charlotte process");
      })
