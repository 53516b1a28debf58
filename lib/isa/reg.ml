(* General-purpose and MPX bound registers of the simulated ISA ("OASM").

   Conventions mirror the paper's use of x86-64:
   - [sp] (R14) is the stack pointer used by push/pop/call.
   - [scratch] (R15) is reserved by the MMDSFI toolchain for cfi_guard
     sequences and is never allocated to user values.
   - [bnd0] holds the data-region bounds [D.begin, D.end); [bnd1] holds
     the degenerate range [cfi_magic, cfi_magic] used for the equality
     test in cfi_guard (Figure 2b). *)

type t = int (* 0..15 *)

let count = 16
let of_int i = if i < 0 || i >= count then invalid_arg "Reg.of_int" else i
external to_int : t -> int = "%identity"

let r0 = 0
let r1 = 1
let r2 = 2
let r3 = 3
let r4 = 4
let r5 = 5
let r6 = 6
let r7 = 7
let r8 = 8
let r9 = 9
let r10 = 10
let r11 = 11
let r12 = 12
let r13 = 13
let sp = 14
let scratch = 15

let name r =
  match r with
  | 14 -> "sp"
  | 15 -> "scr"
  | n -> Printf.sprintf "r%d" n

let pp fmt r = Format.pp_print_string fmt (name r)

type bnd = int (* 0..3 *)

let bnd_count = 4
let bnd_of_int i = if i < 0 || i >= bnd_count then invalid_arg "Reg.bnd_of_int" else i
external bnd_to_int : bnd -> int = "%identity"
let bnd0 = 0
let bnd1 = 1
let bnd2 = 2
let bnd3 = 3
let bnd_name b = Printf.sprintf "bnd%d" b
