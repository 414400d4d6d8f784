(** Interprocedural effect inference (DESIGN.md §13): a monotone
    fixpoint over the {!Lint_callgraph} assigning every toplevel binding
    a {!Lint_effect.set}. Direct seeds come from the resolved primitive
    sites (clock/random/gc/io/domain), touches of toplevel mutable
    state, and unknown callees; propagation follows call edges until no
    set grows. Mutual recursion converges because the lattice is a
    finite powerset and transfer is a union.

    {b The obs seam.} Effects do {e not} propagate across a call edge
    from a non-observability module into [lib/obs]: the planning core is
    instrumented through the [?obs] seam, and the invariant that obs
    writes never feed back into planning values is enforced elsewhere
    (R4/R8 fence the primitives inside obs; the CI trace diff checks
    bit-identity end to end). Everything inside [lib/obs] still
    propagates normally, so obs modules' own manifest signatures stay
    honest. *)

type table

val infer :
  ?seam:(Lint_callgraph.modul -> bool) -> Lint_callgraph.t -> table
(** Run the fixpoint. [seam] decides which callee modules absorb their
    effects at the call boundary as seen from non-seam callers; the
    default marks modules whose path has an [obs] directory segment. *)

val effects : table -> mdl:string -> binding:string -> Lint_effect.set
(** Inferred set for one binding; empty for unknown names. *)

val module_effects : table -> string -> Lint_effect.set
(** Union over the module's bindings. *)

type module_sig = {
  ms_module : string;
  ms_path : string;
  ms_effects : Lint_effect.set;
  ms_bindings : (string * Lint_effect.set) list;  (** sorted by name *)
}

val signatures : table -> module_sig list
(** One per module, sorted by module name. *)

val witness : table -> mdl:string -> binding:string -> Lint_effect.t -> string
(** A human-readable acquisition chain,
    ["Guideline.plan -> Recurrence.generate -> Unix.gettimeofday (lib/sched/recurrence.ml:12)"],
    reconstructed from the origin recorded when the fixpoint first added
    the effect. Falls back to just the binding name when no origin is
    known. *)

val graph : table -> Lint_callgraph.t
(** The call graph the table was inferred from. *)
