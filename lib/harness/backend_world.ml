(** Uniform access to the three LYNX implementations.

    Examples, tests and benches that want to run the same scenario on
    Charlotte, SODA and Chrysalis pick a {!backend} from {!all}, build a
    {!Lynx.World.t} with its [create], and program against
    {!Lynx.World} — the multi-backend portability the paper argues a
    distributed language should provide. *)

type backend = {
  name : string;  (** "charlotte", "soda", "chrysalis" or an ablation variant *)
  create : ?plan:Faults.Plan.t -> Sim.Engine.t -> nodes:int -> Lynx.World.t;
      (** builds the world; [plan] faults it (see {!Lynx.World.create}) *)
}

let charlotte =
  {
    name = "charlotte";
    create = (fun ?plan e ~nodes -> Lynx_charlotte.World.create ?plan e ~nodes);
  }

let soda =
  {
    name = "soda";
    create = (fun ?plan e ~nodes -> Lynx_soda.World.create ?plan e ~nodes);
  }

let chrysalis =
  {
    name = "chrysalis";
    create = (fun ?plan e ~nodes -> Lynx_chrysalis.World.create ?plan e ~nodes);
  }

(** Ablation variant: Charlotte with the top-level reply
    acknowledgments the paper rejected (§3.2.2).  Costs +50%% kernel
    messages per remote operation, but reply senders learn their fate.
    Not part of {!all}; used by the ablation bench and tests. *)
let charlotte_acks =
  {
    name = "charlotte+acks";
    create =
      (fun ?plan e ~nodes ->
        Lynx_charlotte.World.create ~reply_acks:true ?plan e ~nodes);
  }

(** Ablation variant: a Charlotte kernel that moves link ends with
    hints instead of its three-party agreement protocol (the
    simplification lesson one predicts: "the Charlotte kernel itself
    would be simplified considerably by using hints when moving
    links").  Modelled as zero move-protocol cost. *)
let charlotte_hints =
  {
    name = "charlotte+hints";
    create =
      (fun ?plan e ~nodes ->
        Lynx_charlotte.World.create
          ~kernel_costs:
            {
              Charlotte.Costs.default with
              Charlotte.Costs.move_extra = Sim.Time.zero;
              move_protocol_msgs = 0;
            }
          ?plan e ~nodes);
  }

(** Ablation variant: Chrysalis with the §5.3 "code tuning now under
    development" applied (fixed runtime costs cut by 35%). *)
let chrysalis_tuned =
  {
    name = "chrysalis+tuned";
    create =
      (fun ?plan e ~nodes ->
        Lynx_chrysalis.World.create ~costs:Lynx.Costs.m68000_tuned ?plan e ~nodes);
  }

let all = [ charlotte; soda; chrysalis ]

(* Every registered implementation, primaries first: the three paper
   kernels plus the ablation variants.  Sweeps default to [all]; [find]
   resolves any variant by name, so a spec or CLI flag can target an
   ablation ("charlotte+acks") without special-casing. *)
let variants =
  all @ [ charlotte_acks; charlotte_hints; chrysalis_tuned ]

let name b = b.name
let names = List.map name all
let find name_ = List.find_opt (fun b -> String.equal b.name name_) variants

let find_exn name_ =
  match find name_ with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "unknown backend %S" name_)
