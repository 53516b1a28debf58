(** Occlang → OASM code generation with MMDSFI instrumentation
    (Figure 2c): mem_guards before loads/stores (including stack traffic
    from push/pop/call), cfi_guards before indirect transfers,
    cfi_labels at every indirect-transfer target, and returns compiled
    to pop+cfi_guard+jmp — [ret] never appears in instrumented output. *)

type config = {
  guard_loads : bool;
  guard_stores : bool;
  guard_control : bool;
  optimize : bool;  (** run the §4.3 range-analysis optimizer *)
  heap_size : int;
  stack_size : int;
}

val sfi : config
(** Full instrumentation + optimization: the production configuration,
    the only one whose output passes the verifier. *)

val sfi_naive : config
(** Full instrumentation, no optimization (Fig. 7b's "naive"). *)

val bare : config
(** No instrumentation: native-Linux builds and the Fig. 7 baseline. *)

exception Codegen_error of string

val gen_program : config -> Ast.program -> Layout.t * Asm.item list
(** Generate the entry stub and every function. The result is
    unoptimized; see {!Optimize.run}.
    @raise Ast.Ill_formed or @raise Codegen_error on bad input. *)
