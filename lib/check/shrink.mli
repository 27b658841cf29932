(** Counterexample minimization by net and observation surgery.

    Greedy: repeatedly try structurally smaller variants of a failing
    instance — drop a whole one-token component, truncate the alarm
    sequence, drop a single transition — keeping the first variant on
    which the property still fails, until a fixpoint or the check budget
    runs out. All variants of a safe instance are safe (removal only ever
    removes behavior), so the theorems' safety assumption survives; a
    property's structural precondition may not, so [check] should pass
    the variants outside it (as {!Runner} does). *)

type result = {
  instance : Property.instance;  (** the minimized failing instance *)
  steps : int;  (** accepted shrink steps *)
  checks : int;  (** property evaluations spent *)
}

val shrink :
  ?max_checks:int -> check:(Property.instance -> Property.outcome) -> Property.instance ->
  result
(** Minimize a failing instance. [check] must be total (as the checks of
    {!Property.all} are). Default budget: 200 evaluations. *)
