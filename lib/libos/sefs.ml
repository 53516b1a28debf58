(* SEFS: Occlum's writable encrypted file system (§6 "File systems").

   All metadata and data live, encrypted and MAC'd, in an untrusted host
   store; the single in-enclave LibOS instance holds the keys, a shared
   page cache of decrypted blocks, and the authoritative metadata. This
   is the capability Graphene-SGX cannot offer (its per-process enclaves
   would each hold a divergent view), and it is why Table 1 lists
   "shared file systems: writable" only for SIPs.

   Confidentiality: each 4 KiB block is encrypted with a per-(block,
   generation) nonce, derived from an injective encoding of the pair
   (["<volume>:blk:<id>"] at index [gen]) that is disjoint from the
   metadata's [-gen] index, so no two sealings under one key share a
   nonce. Integrity: each block carries an HMAC over its identity,
   generation and ciphertext; any host tampering surfaces as [Corrupt] on
   the next read.

   Every metadata operation is O(1) in the size of the volume: inodes
   live in a table keyed by ino, block generations in an array indexed
   by block id (ids come densely from [next_block] and are never
   reused), and a [(dir ino, name) -> ino] index mirrors every
   directory's [entries] list, which keeps readdir order. [mount]
   rebuilds the index from the sealed metadata. *)

let block_size = 4096

exception Corrupt of string

(* --- the untrusted host side ------------------------------------------- *)

(* A flaky untrusted host can turn any transfer into a transient error
   or a short one. [Net] shares this fault type and the retry loop. *)
type io_fault = Io_error of int | Short of int

(* Bounded retry with deterministic exponential backoff around one
   transfer with the host: a transient [Io_error] is retried up to
   [max_io_attempts] attempts in total, and [retried ns] accounts each
   retry with its simulated wait, 1 us then 2 us (for the LibOS to put
   on the virtual clock). A fault that persists through every attempt
   surfaces its errno; a [Short] transfer made partial progress and is
   never retried. The result is the byte count to move. *)
let max_io_attempts = 3

let backoff_ns_of_attempt k = Int64.of_int (1_000 * (1 lsl (k - 1)))

let retry_io fault ~obs ~len ~retried =
  let rec attempt k =
    match fault () with
    | Some (Io_error _) when k < max_io_attempts ->
        retried (backoff_ns_of_attempt k);
        if obs.Occlum_obs.Obs.enabled then
          Occlum_obs.Metrics.inc
            (Occlum_obs.Metrics.counter obs.Occlum_obs.Obs.metrics "io.retries");
        attempt (k + 1)
    | Some (Io_error e) -> Error e
    | Some (Short n) -> Ok (max 0 (min n len))
    | None -> Ok len
  in
  attempt 1

module Host_store = struct
  type entry = { cipher : string; mac : string }

  type t = {
    blocks : (int, entry) Hashtbl.t;
    mutable meta : (int * entry) option; (* generation (public) + blob *)
    mutable reads : int;
    mutable writes : int;
    (* fault-injection seam of this store; production never sets it *)
    mutable fault : (unit -> io_fault option) option;
  }

  let create () =
    { blocks = Hashtbl.create 256; meta = None; reads = 0; writes = 0;
      fault = None }

  let put t idx e =
    t.writes <- t.writes + 1;
    Hashtbl.replace t.blocks idx e

  let get t idx =
    t.reads <- t.reads + 1;
    Hashtbl.find_opt t.blocks idx

  (* Version 2: block nonces became injective. A version-1 image's MACs
     would still verify, but its blocks would decrypt to garbage, so it
     is refused outright. *)
  let image_magic = "SEFSIMG2"

  (* The on-disk form of the untrusted volume: what the host actually
     stores, and what the occlum_sefs host utility (the paper's
     FUSE-based image tool, §8) reads and writes. Everything in it is
     ciphertext + MACs; serializing it needs no keys. *)
  let to_string t =
    let b = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let blob s =
      add "%d\n" (String.length s);
      Buffer.add_string b s
    in
    add "%s\n" image_magic;
    (match t.meta with
    | None -> add "0\n"
    | Some (gen, e) ->
        add "1 %d\n" gen;
        blob e.cipher;
        blob e.mac);
    add "%d\n" (Hashtbl.length t.blocks);
    Hashtbl.iter
      (fun idx e ->
        add "%d\n" idx;
        blob e.cipher;
        blob e.mac)
      t.blocks;
    Buffer.contents b

  exception Bad_image of string

  let of_string s =
    let pos = ref 0 in
    let line () =
      match String.index_from_opt s !pos '\n' with
      | None -> raise (Bad_image "truncated")
      | Some e ->
          let l = String.sub s !pos (e - !pos) in
          pos := e + 1;
          l
    in
    let blob () =
      let n = try int_of_string (line ()) with _ -> raise (Bad_image "bad length") in
      if n < 0 || !pos + n > String.length s then raise (Bad_image "bad blob");
      let r = String.sub s !pos n in
      pos := !pos + n;
      r
    in
    (match line () with
    | m when m = image_magic -> ()
    | "SEFSIMG1" ->
        raise (Bad_image "image version 1 (old block nonces): re-create it")
    | _ -> raise (Bad_image "bad magic"));
    let t = create () in
    (match String.split_on_char ' ' (line ()) with
    | [ "0" ] -> ()
    | [ "1"; gen ] ->
        let cipher = blob () in
        let mac = blob () in
        t.meta <- Some (int_of_string gen, { cipher; mac })
    | _ -> raise (Bad_image "bad meta header"));
    let nblocks = try int_of_string (line ()) with _ -> raise (Bad_image "bad count") in
    for _ = 1 to nblocks do
      let idx = try int_of_string (line ()) with _ -> raise (Bad_image "bad index") in
      let cipher = blob () in
      let mac = blob () in
      Hashtbl.replace t.blocks idx { cipher; mac }
    done;
    t

  let save t path =
    let oc = open_out_bin path in
    output_string oc (to_string t);
    close_out oc

  let load path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s

  (* Host-side attack surface for the integrity tests: flip a byte. *)
  let tamper t idx =
    match Hashtbl.find_opt t.blocks idx with
    | None -> false
    | Some e ->
        let b = Bytes.of_string e.cipher in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
        Hashtbl.replace t.blocks idx { e with cipher = Bytes.to_string b };
        true
end

(* --- metadata ------------------------------------------------------------ *)

type kind = File | Dir

type inode = {
  ino : int;
  mutable kind : kind;
  mutable size : int;
  mutable blocks : int array; (* host block ids, -1 = hole *)
  mutable entries : (string * int) list; (* directories only *)
  mutable nlink : int;
}

type meta = {
  inodes : (int, inode) Hashtbl.t;
  dirents : (int * string, int) Hashtbl.t;
      (* (dir ino, name) -> ino: the index of every directory's [entries] *)
  mutable next_ino : int;
  mutable next_block : int;
  mutable gens : int array;
      (* block id -> write generation, 0 = never written; grows on demand *)
}

type t = {
  host : Host_store.t;
  keys : Occlum_util.Seal.keys;
  volume : string;
  encrypted : bool; (* false models a plain ext4-style host FS *)
  mutable m : meta;
  cache : (int, cache_line) Hashtbl.t; (* shared page cache, all SIPs *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable retries : int; (* transient I/O faults absorbed by the
                            bounded-retry wrapper around the host *)
  mutable backoff_ns : int64; (* simulated wait accrued by those
                                 retries; the LibOS drains it onto the
                                 virtual clock *)
  mutable obs : Occlum_obs.Obs.t; (* I/O events/metrics; the LibOS
                                     attaches its own at boot *)
}

and cache_line = { mutable data : Bytes.t; mutable dirty : bool }

(* Observability for one file read/write: an event with the byte count
   plus byte counters and a size histogram. One branch when disabled. *)
let note_io t ~write n =
  let o = t.obs in
  if o.Occlum_obs.Obs.enabled then begin
    if o.Occlum_obs.Obs.t_sefs then
      Occlum_obs.Obs.emit o
        (if write then Occlum_obs.Trace.Sefs_write { bytes = n }
         else Occlum_obs.Trace.Sefs_read { bytes = n });
    Occlum_obs.Metrics.add
      (Occlum_obs.Metrics.counter o.Occlum_obs.Obs.metrics
         (if write then "sefs.write.bytes" else "sefs.read.bytes"))
      n;
    Occlum_obs.Metrics.observe
      (Occlum_obs.Metrics.histogram o.Occlum_obs.Obs.metrics "sefs.io.size"
         ~bounds:Occlum_obs.Metrics.size_buckets)
      n
  end

let root_ino = 1

let empty_meta () =
  { inodes = Hashtbl.create 64; dirents = Hashtbl.create 64; next_ino = 2;
    next_block = 0; gens = [||] }

let fresh_meta () =
  let m = empty_meta () in
  Hashtbl.replace m.inodes root_ino
    { ino = root_ino; kind = Dir; size = 0; blocks = [||]; entries = []; nlink = 1 };
  m

let inode t ino = Hashtbl.find_opt t.m.inodes ino

let gen_of t idx = if idx < Array.length t.m.gens then t.m.gens.(idx) else 0

let bump_gen t idx =
  let m = t.m in
  if idx >= Array.length m.gens then begin
    let bigger = Array.make (max (idx + 1) (2 * Array.length m.gens)) 0 in
    Array.blit m.gens 0 bigger 0 (Array.length m.gens);
    m.gens <- bigger
  end;
  let g = m.gens.(idx) + 1 in
  m.gens.(idx) <- g;
  g

(* --- block crypto -------------------------------------------------------- *)

(* Block [idx] at generation [gen] is sealed under the nonce of
   ["<volume>:blk:<idx>"] at index [gen]; the metadata's is [<volume>] at
   index [-gen]. Both encodings are injective and never meet. *)
let block_nonce t idx gen =
  Occlum_util.Cipher.derive_nonce (t.volume ^ ":blk:" ^ string_of_int idx) gen

let meta_nonce t gen = Occlum_util.Cipher.derive_nonce t.volume (-gen)

(* An encrypted volume seals through {!Occlum_util.Seal} under its
   keys; a plaintext one stores [plain] as is, untagged, and never
   forces [nonce]. Both directions copy the payload once. *)
let seal t ~label ~nonce plain =
  if not t.encrypted then { Host_store.cipher = Bytes.to_string plain; mac = "" }
  else
    let cipher, mac =
      Occlum_util.Seal.seal t.keys ~label ~nonce:(Lazy.force nonce) plain
    in
    { Host_store.cipher; mac }

let unseal t ~label ~nonce (e : Host_store.entry) =
  if not t.encrypted then Bytes.of_string e.cipher
  else
    match
      Occlum_util.Seal.open_ t.keys ~label ~nonce:(Lazy.force nonce) ~tag:e.mac
        e.cipher
    with
    | Some plain -> plain
    | None -> raise (Corrupt ("integrity check failed: " ^ label))

let block_label idx gen = "blk:" ^ string_of_int idx ^ ":" ^ string_of_int gen

let writeback_block t idx (line : cache_line) =
  let gen = bump_gen t idx in
  Host_store.put t.host idx
    (seal t ~label:(block_label idx gen) ~nonce:(lazy (block_nonce t idx gen))
       line.data);
  line.dirty <- false

let read_block t idx =
  match Hashtbl.find_opt t.cache idx with
  | Some line ->
      t.cache_hits <- t.cache_hits + 1;
      line
  | None ->
      t.cache_misses <- t.cache_misses + 1;
      let data =
        match Host_store.get t.host idx with
        | None -> Bytes.make block_size '\x00' (* never written: a hole *)
        | Some e ->
            let gen = gen_of t idx in
            unseal t ~label:(block_label idx gen)
              ~nonce:(lazy (block_nonce t idx gen)) e
      in
      let line = { data; dirty = false } in
      Hashtbl.replace t.cache idx line;
      line

let alloc_block t =
  let idx = t.m.next_block in
  t.m.next_block <- idx + 1;
  Hashtbl.replace t.cache idx { data = Bytes.make block_size '\x00'; dirty = true };
  idx

(* --- persistence ---------------------------------------------------------- *)

(* [n] in decimal, without the allocation [string_of_int] makes. *)
let rec add_int b n =
  if n < 0 then
    if n = min_int then Buffer.add_string b (string_of_int n)
    else begin
      Buffer.add_char b '-';
      add_int b (-n)
    end
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end

(* Generations in block-id order (unwritten blocks omitted), then inodes
   in ino order, each with its block list and its entries in readdir
   order. *)
let meta_to_string (m : meta) =
  let b = Buffer.create 4096 in
  let int n = add_int b n in
  let sp () = Buffer.add_char b ' ' and nl () = Buffer.add_char b '\n' in
  Buffer.add_string b "META1\n";
  int m.next_ino; sp (); int m.next_block; nl ();
  int (Array.fold_left (fun k g -> if g > 0 then k + 1 else k) 0 m.gens); nl ();
  Array.iteri (fun i g -> if g > 0 then begin int i; sp (); int g; nl () end) m.gens;
  let inos = Array.of_seq (Hashtbl.to_seq_keys m.inodes) in
  Array.sort Int.compare inos;
  int (Array.length inos); nl ();
  Array.iter
    (fun ino ->
      let n = Hashtbl.find m.inodes ino in
      int n.ino; sp ();
      Buffer.add_char b (match n.kind with File -> 'F' | Dir -> 'D'); sp ();
      int n.size; sp (); int n.nlink; nl ();
      int (Array.length n.blocks);
      Array.iter (fun blk -> sp (); int blk) n.blocks;
      nl ();
      int (List.length n.entries); nl ();
      List.iter
        (fun (name, child) ->
          int (String.length name); sp (); Buffer.add_string b name; sp ();
          int child; nl ())
        n.entries)
    inos;
  Buffer.contents b

let meta_of_string s =
  let pos = ref 0 in
  let line () =
    match String.index_from_opt s !pos '\n' with
    | None -> raise (Corrupt "metadata truncated")
    | Some e ->
        let l = String.sub s !pos (e - !pos) in
        pos := e + 1;
        l
  in
  let ints l = List.map int_of_string (String.split_on_char ' ' l) in
  if line () <> "META1" then raise (Corrupt "bad metadata magic");
  let m = empty_meta () in
  (match ints (line ()) with
  | [ a; b ] when b >= 0 ->
      m.next_ino <- a;
      m.next_block <- b
  | _ -> raise (Corrupt "bad metadata header"));
  m.gens <- Array.make m.next_block 0;
  for _ = 1 to int_of_string (line ()) do
    match ints (line ()) with
    | [ i; g ] when i >= 0 && i < m.next_block -> m.gens.(i) <- g
    | [ _; _ ] -> raise (Corrupt "gen entry beyond next_block")
    | _ -> raise (Corrupt "bad gen entry")
  done;
  for _ = 1 to int_of_string (line ()) do
    let ino, kind, size, nlink =
      match String.split_on_char ' ' (line ()) with
      | [ a; k; sz; nl ] ->
          ( int_of_string a,
            (if k = "F" then File else Dir),
            int_of_string sz, int_of_string nl )
      | _ -> raise (Corrupt "bad inode line")
    in
    let blocks =
      match ints (line ()) with
      | cnt :: rest ->
          if List.length rest <> cnt then raise (Corrupt "bad block list");
          Array.of_list rest
      | [] -> raise (Corrupt "bad block list")
    in
    let entries =
      List.init (int_of_string (line ())) (fun _ ->
          let l = line () in
          match String.index_opt l ' ' with
          | None -> raise (Corrupt "bad dirent")
          | Some sp ->
              let nlen = int_of_string (String.sub l 0 sp) in
              let name = String.sub l (sp + 1) nlen in
              let child =
                int_of_string
                  (String.sub l (sp + 2 + nlen) (String.length l - sp - 2 - nlen))
              in
              Hashtbl.replace m.dirents (ino, name) child;
              (name, child))
    in
    Hashtbl.replace m.inodes ino { ino; kind; size; blocks; entries; nlink }
  done;
  m

let flush t =
  Hashtbl.iter (fun idx line -> if line.dirty then writeback_block t idx line)
    t.cache;
  let gen = (match t.host.meta with Some (g, _) -> g | None -> 0) + 1 in
  let label = Printf.sprintf "meta:%d" gen in
  t.host.meta <-
    Some
      ( gen,
        seal t ~label ~nonce:(lazy (meta_nonce t gen))
          (Bytes.unsafe_of_string (meta_to_string t.m)) )

(* Re-mount an existing host store (e.g. a fresh LibOS boot over the same
   host files): decrypt and reload the metadata, rebuilding its indexes. *)
let mount ?(volume = "vol0") ?(encrypted = true) ~key host =
  let t =
    { host; keys = Occlum_util.Seal.keys ~domain:"sefs" key; volume; encrypted;
      m = empty_meta ();
      cache = Hashtbl.create 256; cache_hits = 0; cache_misses = 0;
      retries = 0; backoff_ns = 0L; obs = Occlum_obs.Obs.disabled }
  in
  (match host.Host_store.meta with
  | None -> t.m <- fresh_meta ()
  | Some (gen, e) ->
      let label = Printf.sprintf "meta:%d" gen in
      t.m <-
        meta_of_string
          (Bytes.unsafe_to_string
             (unseal t ~label ~nonce:(lazy (meta_nonce t gen)) e)));
  t

let create ?volume ?encrypted ~key () =
  mount ?volume ?encrypted ~key (Host_store.create ())

(* --- namespace ------------------------------------------------------------ *)

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

(* The ino [name] names in directory [dir], through the index. *)
let child_ino t (dir : inode) name = Hashtbl.find_opt t.m.dirents (dir.ino, name)

let rec walk t (node : inode) = function
  | [] -> Some node
  | seg :: rest -> (
      match node.kind with
      | File -> None
      | Dir -> (
          match Option.bind (child_ino t node seg) (inode t) with
          | None -> None
          | Some child -> walk t child rest))

let lookup_segs t segs =
  match inode t root_ino with None -> None | Some root -> walk t root segs

let lookup t path = lookup_segs t (split_path path)

let lookup_parent t path =
  match List.rev (split_path path) with
  | [] -> None
  | name :: rev_dir -> (
      match lookup_segs t (List.rev rev_dir) with
      | Some ({ kind = Dir; _ } as d) -> Some (d, name)
      | Some _ | None -> None)

(* [entries] keeps readdir order; [dirents] indexes it. A new name goes
   last. *)
let add_entry t (dir : inode) name ino =
  dir.entries <- dir.entries @ [ (name, ino) ];
  Hashtbl.replace t.m.dirents (dir.ino, name) ino

let remove_entry t (dir : inode) name =
  dir.entries <- List.remove_assoc name dir.entries;
  Hashtbl.remove t.m.dirents (dir.ino, name)

let add_inode t kind =
  let ino = t.m.next_ino in
  t.m.next_ino <- ino + 1;
  let n = { ino; kind; size = 0; blocks = [||]; entries = []; nlink = 1 } in
  Hashtbl.replace t.m.inodes ino n;
  n

let create_file t path =
  match lookup t path with
  | Some n when n.kind = File -> Ok n
  | Some _ -> Error Occlum_abi.Abi.Errno.eisdir
  | None -> (
      match lookup_parent t path with
      | None -> Error Occlum_abi.Abi.Errno.enoent
      | Some (dir, name) ->
          let n = add_inode t File in
          add_entry t dir name n.ino;
          Ok n)

let mkdir t path =
  match lookup t path with
  | Some _ -> Error Occlum_abi.Abi.Errno.eexist
  | None -> (
      match lookup_parent t path with
      | None -> Error Occlum_abi.Abi.Errno.enoent
      | Some (dir, name) ->
          let n = add_inode t Dir in
          add_entry t dir name n.ino;
          Ok n)

let unlink t path =
  match lookup_parent t path with
  | None -> Error Occlum_abi.Abi.Errno.enoent
  | Some (dir, name) -> (
      match child_ino t dir name with
      | None -> Error Occlum_abi.Abi.Errno.enoent
      | Some ino -> (
          match inode t ino with
          | Some { kind = Dir; entries = _ :: _; _ } ->
              Error Occlum_abi.Abi.Errno.enotempty
          | _ ->
              remove_entry t dir name;
              Hashtbl.remove t.m.inodes ino;
              Ok ()))

(* [prefix] is a proper prefix of [segs]. *)
let rec proper_prefix prefix segs =
  match (prefix, segs) with
  | [], _ :: _ -> true
  | p :: ps, s :: ss -> String.equal p s && proper_prefix ps ss
  | _ -> false

(* POSIX rename without hard links: renaming a name onto itself changes
   nothing, a directory cannot move into its own subtree, and a replaced
   target leaves the inode table with its name. The moved name goes
   first in the target directory's listing. *)
let rename t src dst =
  let module E = Occlum_abi.Abi.Errno in
  match (lookup_parent t src, lookup_parent t dst) with
  | Some (sdir, sname), Some (ddir, dname) -> (
      match Option.bind (child_ino t sdir sname) (inode t) with
      | None -> Error E.enoent
      | Some moved -> (
          if proper_prefix (split_path src) (split_path dst) then Error E.einval
          else
            match Option.bind (child_ino t ddir dname) (inode t) with
            | Some old when old.ino = moved.ino -> Ok ()
            | Some { kind = Dir; entries = _ :: _; _ } -> Error E.enotempty
            | Some { kind = Dir; _ } when moved.kind = File -> Error E.eisdir
            | Some { kind = File; _ } when moved.kind = Dir -> Error E.enotdir
            | replaced ->
                Option.iter
                  (fun (old : inode) -> Hashtbl.remove t.m.inodes old.ino)
                  replaced;
                remove_entry t sdir sname;
                ddir.entries <- (dname, moved.ino) :: List.remove_assoc dname ddir.entries;
                Hashtbl.replace t.m.dirents (ddir.ino, dname) moved.ino;
                Ok ()))
  | _ -> Error E.enoent

let readdir t path =
  match lookup t path with
  | Some ({ kind = Dir; _ } as d) -> Ok (List.map fst d.entries)
  | Some _ -> Error Occlum_abi.Abi.Errno.enotdir
  | None -> Error Occlum_abi.Abi.Errno.enoent

(* --- file data ------------------------------------------------------------- *)

(* The largest file SEFS holds. A write or truncate past it is [EFBIG],
   refused before any block or buffer is allocated. *)
let max_file_size = 1 lsl 30

let ensure_block t (n : inode) bi =
  if bi >= Array.length n.blocks then begin
    let bigger = Array.make (bi + 1) (-1) in
    Array.blit n.blocks 0 bigger 0 (Array.length n.blocks);
    n.blocks <- bigger
  end;
  if n.blocks.(bi) = -1 then n.blocks.(bi) <- alloc_block t;
  n.blocks.(bi)

(* Zero [n]'s bytes in [from, upto). A file that shrank keeps its block
   ids, so bytes past its end may still hold what was written before;
   growing it again must show zeros there. Holes already read as zeros. *)
let zero_gap t (n : inode) ~from ~upto =
  let last = min (Array.length n.blocks) ((upto + block_size - 1) / block_size) in
  for bi = from / block_size to last - 1 do
    if n.blocks.(bi) >= 0 then begin
      let lo = max from (bi * block_size) in
      let hi = min upto ((bi + 1) * block_size) in
      let line = read_block t n.blocks.(bi) in
      Bytes.fill line.data (lo mod block_size) (hi - lo) '\x00';
      line.dirty <- true
    end
  done

let consult_io t ~len =
  match t.host.Host_store.fault with
  | None -> Ok len
  | Some f ->
      retry_io f ~obs:t.obs ~len ~retried:(fun ns ->
          t.retries <- t.retries + 1;
          t.backoff_ns <- Int64.add t.backoff_ns ns)

let read_file t (n : inode) ~pos ~len =
  if n.kind <> File then Error Occlum_abi.Abi.Errno.eisdir
  else if pos < 0 then Error Occlum_abi.Abi.Errno.einval
  else begin
    match consult_io t ~len:(max 0 (min len (n.size - pos))) with
    | Error e -> Error e
    | Ok len ->
    let out = Bytes.create len in
    let done_ = ref 0 in
    while !done_ < len do
      let abs = pos + !done_ in
      let bi = abs / block_size and off = abs mod block_size in
      let chunk = min (block_size - off) (len - !done_) in
      (if bi < Array.length n.blocks && n.blocks.(bi) >= 0 then
         let line = read_block t n.blocks.(bi) in
         Bytes.blit line.data off out !done_ chunk
       else Bytes.fill out !done_ chunk '\x00');
      done_ := !done_ + chunk
    done;
    note_io t ~write:false len;
    Ok out
  end

let write_file t (n : inode) ~pos src =
  if n.kind <> File then Error Occlum_abi.Abi.Errno.eisdir
  else if pos < 0 then Error Occlum_abi.Abi.Errno.einval
  else if Bytes.length src > max_file_size - pos then
    Error Occlum_abi.Abi.Errno.efbig
  else begin
    match consult_io t ~len:(Bytes.length src) with
    | Error e -> Error e
    | Ok len ->
    if len > 0 && pos > n.size then zero_gap t n ~from:n.size ~upto:pos;
    let done_ = ref 0 in
    while !done_ < len do
      let abs = pos + !done_ in
      let bi = abs / block_size and off = abs mod block_size in
      let chunk = min (block_size - off) (len - !done_) in
      let blk = ensure_block t n bi in
      let line = read_block t blk in
      Bytes.blit src !done_ line.data off chunk;
      line.dirty <- true;
      done_ := !done_ + chunk
    done;
    n.size <- max n.size (pos + len);
    note_io t ~write:true len;
    Ok len
  end

let truncate t (n : inode) size =
  if n.kind <> File then Error Occlum_abi.Abi.Errno.eisdir
  else if size < 0 then Error Occlum_abi.Abi.Errno.einval
  else if size > max_file_size then Error Occlum_abi.Abi.Errno.efbig
  else begin
    if size > n.size then zero_gap t n ~from:n.size ~upto:size;
    n.size <- size;
    Ok ()
  end

(* mkdir -p for the directories leading to [path]'s parent. *)
let ensure_parents t path =
  match List.rev (split_path path) with
  | [] -> ()
  | _ :: rev_dirs ->
      let rec go prefix = function
        | [] -> ()
        | seg :: rest ->
            let p = prefix ^ "/" ^ seg in
            (match lookup t p with
            | Some _ -> ()
            | None -> ignore (mkdir t p));
            go p rest
      in
      go "" (List.rev rev_dirs)

(* Convenience for images and tests. *)
let write_path t path content =
  match create_file t path with
  | Error e -> Error e
  | Ok n ->
      ignore (truncate t n 0);
      Result.map (fun _ -> n) (write_file t n ~pos:0 (Bytes.of_string content))

let read_path t path =
  match lookup t path with
  | None -> Error Occlum_abi.Abi.Errno.enoent
  | Some n ->
      Result.map Bytes.to_string (read_file t n ~pos:0 ~len:n.size)
