(** Occlang: the small imperative language the Occlum toolchain compiles
    — the stand-in for C in this reproduction. Deliberately low-level
    (flat memory, explicit loads/stores, function pointers, syscalls) so
    compiled programs exercise every instruction category the verifier
    judges.

    Semantics (shared by the reference interpreter and the machine):
    values are 64-bit integers; [Div]/[Rem] are unsigned; comparisons are
    signed and yield 0/1; argument evaluation is right-to-left; memory is
    the process's data region and dereferencing outside it faults. *)

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge

type unop =
  | Neg
  | Not   (** bitwise complement *)
  | Lnot  (** 1 if zero, else 0 *)

type expr =
  | Int of int64
  | Str of string          (** address of an interned literal *)
  | Var of string          (** local, parameter, or register variable *)
  | Global_addr of string  (** address of a global buffer *)
  | Data_addr of int       (** D.begin + fixed offset (argv area etc.) *)
  | Frame_addr of string
      (** address of a stack local's slot; powers the RIPE overflow
          workloads; unsupported by the reference interpreter *)
  | Load of expr           (** 64-bit load *)
  | Load1 of expr          (** byte load, zero-extended *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list
  | Call_ptr of expr * expr list  (** indirect call through a pointer *)
  | Func_addr of string
  | Syscall of int * expr list    (** raw system call, up to 5 arguments *)

type stmt =
  | Let of string * expr   (** declare-and-init a local *)
  | Assign of string * expr
  | Store of expr * expr   (** [Store (addr, value)], 64-bit *)
  | Store1 of expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Return of expr
  | Expr of expr

type func = {
  name : string;
  params : string list;
  reg_vars : string list;
      (** up to {!max_reg_vars} variables pinned to callee registers;
          loop pointers placed here become visible to the range
          analysis, enabling the loop check hoisting of §4.3 *)
  body : stmt list;
}

type program = {
  globals : (string * int) list;  (** name, size in bytes *)
  funcs : func list;              (** must include "main" (no params) *)
  secrets : string list;
      (** globals declared [secret]: their D-region ranges are carried
          through the OELF as a section-level attribute and seed the
          constant-time taint analysis of [lib/analysis] *)
}

(** {1 Convenience constructors} *)

val i : int -> expr
val v : string -> expr
val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val ( %: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( >: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( =: ) : expr -> expr -> expr
val ( <>: ) : expr -> expr -> expr
val ( &: ) : expr -> expr -> expr
val ( |: ) : expr -> expr -> expr
val ( ^: ) : expr -> expr -> expr
val ( <<: ) : expr -> expr -> expr
val ( >>: ) : expr -> expr -> expr

val func : ?reg_vars:string list -> string -> string list -> stmt list -> func

(** {1 Analysis} *)

exception Ill_formed of string

val check_program : program -> unit
(** Name resolution, arity and structural checks.
    @raise Ill_formed with a description. *)

val literals : program -> string list
(** Every string literal, in first-occurrence order (the literal pool). *)
