(* SEFS tests: the writable encrypted file system — namespace operations,
   multi-block data paths, persistence across remounts (a fresh LibOS
   over the same untrusted host store), host-tamper detection, the shared
   page cache, and the plaintext (ext4-model) mode. *)

open Occlum_libos

let fresh () = Sefs.create ~key:"test-key" ()

let wr t path content =
  match Sefs.write_path t path content with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "write %s: errno %d" path e)

let rd t path =
  match Sefs.read_path t path with
  | Ok s -> s
  | Error e -> Alcotest.fail (Printf.sprintf "read %s: errno %d" path e)

let node t path =
  match Sefs.lookup t path with
  | Some n -> n
  | None -> Alcotest.fail ("lookup " ^ path)

let test_basic_files () =
  let t = fresh () in
  wr t "/a.txt" "hello";
  Alcotest.(check string) "read back" "hello" (rd t "/a.txt");
  wr t "/a.txt" "rewritten";
  Alcotest.(check string) "rewrite" "rewritten" (rd t "/a.txt");
  Alcotest.(check bool) "missing" true (Sefs.read_path t "/nope" = Error (-2))

let test_directories () =
  let t = fresh () in
  (match Sefs.mkdir t "/dir" with Ok _ -> () | Error _ -> Alcotest.fail "mkdir");
  (match Sefs.mkdir t "/dir" with
  | Error e when e = Occlum_abi.Abi.Errno.eexist -> ()
  | _ -> Alcotest.fail "mkdir twice");
  wr t "/dir/f1" "one";
  wr t "/dir/f2" "two";
  (match Sefs.readdir t "/dir" with
  | Ok names -> Alcotest.(check (list string)) "listing" [ "f1"; "f2" ] names
  | Error _ -> Alcotest.fail "readdir");
  (match Sefs.readdir t "/dir/f1" with
  | Error e when e = Occlum_abi.Abi.Errno.enotdir -> ()
  | _ -> Alcotest.fail "readdir on file");
  (* non-empty directory cannot be unlinked *)
  (match Sefs.unlink t "/dir" with
  | Error e when e = Occlum_abi.Abi.Errno.enotempty -> ()
  | _ -> Alcotest.fail "unlink non-empty");
  (match Sefs.unlink t "/dir/f1" with Ok () -> () | _ -> Alcotest.fail "unlink");
  Alcotest.(check bool) "gone" true (Sefs.read_path t "/dir/f1" = Error (-2));
  Sefs.ensure_parents t "/x/y/z/file";
  wr t "/x/y/z/file" "deep";
  Alcotest.(check string) "deep path" "deep" (rd t "/x/y/z/file")

let test_rename () =
  let t = fresh () in
  wr t "/old" "payload";
  (match Sefs.rename t "/old" "/new" with Ok () -> () | _ -> Alcotest.fail "rename");
  Alcotest.(check string) "at new name" "payload" (rd t "/new");
  Alcotest.(check bool) "old gone" true (Sefs.read_path t "/old" = Error (-2))

let test_multiblock () =
  let t = fresh () in
  let big = String.init 20000 (fun k -> Char.chr (k mod 251)) in
  wr t "/big" big;
  Alcotest.(check int) "size" 20000 (String.length (rd t "/big"));
  Alcotest.(check string) "content" big (rd t "/big");
  (* partial reads/writes at odd offsets crossing block boundaries *)
  (match Sefs.lookup t "/big" with
  | Some node ->
      (match Sefs.read_file t node ~pos:4090 ~len:20 with
      | Ok b ->
          Alcotest.(check string) "straddling read" (String.sub big 4090 20)
            (Bytes.to_string b)
      | Error _ -> Alcotest.fail "read");
      (match Sefs.write_file t node ~pos:8190 (Bytes.of_string "XYZ") with
      | Ok 3 -> ()
      | _ -> Alcotest.fail "write");
      Alcotest.(check string) "straddling write" "XYZ"
        (String.sub (rd t "/big") 8190 3)
  | None -> Alcotest.fail "lookup")

let test_sparse () =
  let t = fresh () in
  (match Sefs.create_file t "/sparse" with
  | Ok node -> (
      (* write far past the start: the hole reads as zeros *)
      match Sefs.write_file t node ~pos:10000 (Bytes.of_string "end") with
      | Ok _ ->
          let all = rd t "/sparse" in
          Alcotest.(check int) "size" 10003 (String.length all);
          Alcotest.(check string) "hole is zero" (String.make 100 '\x00')
            (String.sub all 0 100);
          Alcotest.(check string) "tail" "end" (String.sub all 10000 3)
      | Error _ -> Alcotest.fail "sparse write")
  | Error _ -> Alcotest.fail "create")

let test_persistence () =
  let t = fresh () in
  Sefs.ensure_parents t "/data/x";
  wr t "/data/file" "survives remount";
  wr t "/top" (String.make 9000 'z');
  Sefs.flush t;
  (* a new LibOS boot mounts the same untrusted host store *)
  let t2 = Sefs.mount ~key:"test-key" t.Sefs.host in
  Alcotest.(check string) "file survives" "survives remount" (rd t2 "/data/file");
  Alcotest.(check string) "big survives" (String.make 9000 'z') (rd t2 "/top");
  (match Sefs.readdir t2 "/" with
  | Ok names -> Alcotest.(check bool) "root listing" true (List.mem "data" names)
  | Error _ -> Alcotest.fail "readdir after mount")

let test_confidentiality () =
  (* the host must never see plaintext *)
  let t = fresh () in
  let secret = "TOP-SECRET-PAYLOAD-0123456789" in
  wr t "/secret" (secret ^ String.make 4096 'p');
  Sefs.flush t;
  Hashtbl.iter
    (fun _ (e : Sefs.Host_store.entry) ->
      Alcotest.(check bool) "ciphertext only" false
        (Occlum_util.Bytes_util.contains ~needle:secret
           (Bytes.of_string e.Sefs.Host_store.cipher)))
    t.Sefs.host.Sefs.Host_store.blocks;
  (match t.Sefs.host.Sefs.Host_store.meta with
  | Some (_, e) ->
      Alcotest.(check bool) "metadata encrypted" false
        (Occlum_util.Bytes_util.contains ~needle:"secret"
           (Bytes.of_string e.Sefs.Host_store.cipher))
  | None -> Alcotest.fail "no metadata")

let test_integrity () =
  let t = fresh () in
  wr t "/f" (String.make 5000 'q');
  Sefs.flush t;
  (* tamper with a host block, then force a cold read *)
  Alcotest.(check bool) "tampered" true (Sefs.Host_store.tamper t.Sefs.host 0);
  Hashtbl.reset t.Sefs.cache;
  (match Sefs.read_path t "/f" with
  | exception Sefs.Corrupt _ -> ()
  | _ -> Alcotest.fail "tampering must be detected");
  (* metadata tampering is detected at mount *)
  let t2 = fresh () in
  wr t2 "/g" "x";
  Sefs.flush t2;
  (match t2.Sefs.host.Sefs.Host_store.meta with
  | Some (g, e) ->
      let b = Bytes.of_string e.Sefs.Host_store.cipher in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      t2.Sefs.host.Sefs.Host_store.meta <-
        Some (g, { e with Sefs.Host_store.cipher = Bytes.to_string b })
  | None -> Alcotest.fail "no meta");
  match Sefs.mount ~key:"test-key" t2.Sefs.host with
  | exception Sefs.Corrupt _ -> ()
  | _ -> Alcotest.fail "metadata tampering must be detected"

let test_wrong_key () =
  let t = fresh () in
  wr t "/f" "locked";
  Sefs.flush t;
  match Sefs.mount ~key:"wrong-key" t.Sefs.host with
  | exception Sefs.Corrupt _ -> ()
  | _ -> Alcotest.fail "wrong key must not decrypt"

let test_page_cache () =
  let t = fresh () in
  wr t "/f" (String.make 4096 'c');
  Sefs.flush t;
  Hashtbl.reset t.Sefs.cache;
  t.Sefs.cache_misses <- 0;
  t.Sefs.cache_hits <- 0;
  ignore (rd t "/f");
  let misses_cold = t.Sefs.cache_misses in
  ignore (rd t "/f");
  ignore (rd t "/f");
  Alcotest.(check bool) "cold misses" true (misses_cold >= 1);
  Alcotest.(check int) "no further misses" misses_cold t.Sefs.cache_misses;
  Alcotest.(check bool) "hits counted" true (t.Sefs.cache_hits >= 2)

let test_plaintext_mode () =
  (* the ext4 model stores plaintext, so the host sees the content *)
  let t = Sefs.create ~encrypted:false ~key:"ignored" () in
  wr t "/f" ("plainpayload" ^ String.make 4096 'p');
  Sefs.flush t;
  let found = ref false in
  Hashtbl.iter
    (fun _ (e : Sefs.Host_store.entry) ->
      if
        Occlum_util.Bytes_util.contains ~needle:"plainpayload"
          (Bytes.of_string e.Sefs.Host_store.cipher)
      then found := true)
    t.Sefs.host.Sefs.Host_store.blocks;
  Alcotest.(check bool) "host sees plaintext" true !found;
  (* and it still round-trips across a remount *)
  let t2 = Sefs.mount ~encrypted:false ~key:"ignored" t.Sefs.host in
  Alcotest.(check int) "readable" (12 + 4096) (String.length (rd t2 "/f"))

let test_truncate () =
  let t = fresh () in
  wr t "/f" "0123456789";
  (match Sefs.lookup t "/f" with
  | Some node -> (
      match Sefs.truncate t node 4 with
      | Ok () -> Alcotest.(check string) "truncated" "0123" (rd t "/f")
      | Error _ -> Alcotest.fail "truncate")
  | None -> Alcotest.fail "lookup");
  (* growing back shows zeros, not the bytes from before the shrink,
     also once the block went to the host and came back; the inode
     keeps its blocks *)
  let n = node t "/f" in
  let blocks = n.Sefs.blocks in
  Sefs.flush t;
  Hashtbl.reset t.Sefs.cache;
  Alcotest.(check bool) "regrow" true (Sefs.truncate t n 6 = Ok ());
  Alcotest.(check string) "regrown" "0123\000\000" (rd t "/f");
  Alcotest.(check bool) "same blocks" true (n.Sefs.blocks == blocks);
  Alcotest.(check bool) "negative size" true
    (Sefs.truncate t n (-1) = Error Occlum_abi.Abi.Errno.einval)

let test_image_roundtrip () =
  (* the host-side image format: serialize the untrusted store, reload
     it, and mount — the occlum_sefs workflow *)
  let t = fresh () in
  Sefs.ensure_parents t "/data/x";
  wr t "/data/f" "image payload";
  Sefs.flush t;
  let img = Sefs.Host_store.to_string t.Sefs.host in
  Alcotest.(check bool) "image is ciphertext-only" false
    (Occlum_util.Bytes_util.contains ~needle:"image payload"
       (Bytes.of_string img));
  let host2 = Sefs.Host_store.of_string img in
  let t2 = Sefs.mount ~key:"test-key" host2 in
  Alcotest.(check string) "roundtrip" "image payload" (rd t2 "/data/f");
  (* malformed images are rejected cleanly *)
  (match Sefs.Host_store.of_string "garbage" with
  | exception Sefs.Host_store.Bad_image _ -> ()
  | _ -> Alcotest.fail "bad image accepted");
  match Sefs.Host_store.of_string (String.sub img 0 (String.length img / 2)) with
  | exception Sefs.Host_store.Bad_image _ -> ()
  | _ -> Alcotest.fail "truncated image accepted"

(* Block nonces once came from [Hashtbl.hash (idx, gen)], which squeezes
   the pair through 30 bits. Find two (block, generation) pairs that
   collide under it and check that their nonces still differ, and that no
   block nonce meets a metadata nonce. *)
let test_block_nonces_unique () =
  let seen = Hashtbl.create 65536 in
  let rec search idx gen =
    let h = Hashtbl.hash (idx, gen) in
    match Hashtbl.find_opt seen h with
    | Some p -> (p, (idx, gen))
    | None ->
        Hashtbl.add seen h (idx, gen);
        if gen < 4 then search idx (gen + 1) else search (idx + 1) 1
  in
  let (i1, g1), (i2, g2) = search 0 1 in
  Alcotest.(check bool) "distinct pairs" true ((i1, g1) <> (i2, g2));
  Alcotest.(check bool)
    (Printf.sprintf "nonces of (%d,%d) and (%d,%d) differ" i1 g1 i2 g2)
    false
    (String.equal (Sefs.block_nonce i1 g1) (Sefs.block_nonce i2 g2));
  Alcotest.(check int) "(9602,2) and (10457,3) collide under the old tag"
    (Hashtbl.hash (9602, 2)) (Hashtbl.hash (10457, 3));
  Alcotest.(check bool) "(9602,2) and (10457,3) differ" false
    (String.equal (Sefs.block_nonce 9602 2) (Sefs.block_nonce 10457 3));
  let metas = List.init 64 (fun g -> Sefs.meta_nonce (g + 1)) in
  for idx = 0 to 63 do
    for gen = 1 to 4 do
      if List.mem (Sefs.block_nonce idx gen) metas then
        Alcotest.failf "block (%d,%d) shares a metadata nonce" idx gen
    done
  done

let live_inodes t =
  List.length (List.filter (fun k -> Sefs.inode t k <> None) (List.init 1000 Fun.id))

let test_rename_replaces () =
  (* renaming over an existing file frees the replaced inode *)
  let t = fresh () in
  wr t "/a" "A";
  wr t "/b" "B";
  let old = match Sefs.lookup t "/b" with Some n -> n.Sefs.ino | None -> -1 in
  (match Sefs.rename t "/a" "/b" with Ok () -> () | _ -> Alcotest.fail "rename");
  Alcotest.(check string) "target has the source's data" "A" (rd t "/b");
  Alcotest.(check bool) "replaced inode freed" true (Sefs.inode t old = None);
  Alcotest.(check int) "root and /b only" 2 (live_inodes t);
  Sefs.flush t;
  let t2 = Sefs.mount ~key:"test-key" t.Sefs.host in
  Alcotest.(check int) "still two after remount" 2 (live_inodes t2);
  Alcotest.(check string) "remounted" "A" (rd t2 "/b")

let test_rename_into_own_subtree () =
  (* a directory cannot move below itself: EINVAL, and nothing changes *)
  let t = fresh () in
  Sefs.ensure_parents t "/d/sub/x";
  wr t "/d/f" "F";
  (match Sefs.rename t "/d" "/d/sub/x" with
  | Error e when e = Occlum_abi.Abi.Errno.einval -> ()
  | _ -> Alcotest.fail "rename into own subtree must be EINVAL");
  (match Sefs.rename t "/d" "/d/x" with
  | Error e when e = Occlum_abi.Abi.Errno.einval -> ()
  | _ -> Alcotest.fail "rename into itself must be EINVAL");
  Alcotest.(check string) "/d/f intact" "F" (rd t "/d/f");
  Alcotest.(check (result (list string) int)) "root" (Ok [ "d" ]) (Sefs.readdir t "/");
  Alcotest.(check (result (list string) int)) "/d" (Ok [ "sub"; "f" ])
    (Sefs.readdir t "/d");
  Alcotest.(check (result (list string) int)) "/d/sub" (Ok []) (Sefs.readdir t "/d/sub");
  Alcotest.(check int) "root, d, sub, f" 4 (live_inodes t)

(* An image of an older format version is refused with a message that
   names its version, never mounted. *)
let image_with_magic magic =
  let t = fresh () in
  wr t "/f" "x";
  Sefs.flush t;
  let img = Sefs.Host_store.to_string t.Sefs.host in
  Alcotest.(check string) "image version 4" "SEFSIMG4\n" (String.sub img 0 9);
  magic ^ String.sub img 8 (String.length img - 8)

let test_image_v1_rejected () =
  Alcotest.check_raises "version 1"
    (Sefs.Host_store.Bad_image "image version 1 (old block nonces): re-create it")
    (fun () -> ignore (Sefs.Host_store.of_string (image_with_magic "SEFSIMG1")))

(* Version 2 tagged with HMAC-SHA-256 over the bare label ‖ ciphertext;
   none of its tags verifies under keyed BLAKE2b. *)
let test_image_v2_rejected () =
  Alcotest.check_raises "version 2"
    (Sefs.Host_store.Bad_image "image version 2 (HMAC tags): re-create it")
    (fun () -> ignore (Sefs.Host_store.of_string (image_with_magic "SEFSIMG2")))

(* Version 3 tagged with keyed BLAKE2s under SHA-256-derived nonces and
   one key domain for every volume. *)
let test_image_v3_rejected () =
  Alcotest.check_raises "version 3"
    (Sefs.Host_store.Bad_image "image version 3 (BLAKE2s tags): re-create it")
    (fun () -> ignore (Sefs.Host_store.of_string (image_with_magic "SEFSIMG3")))

(* A nonce is [u32le id ‖ u56le gen ‖ kind]. The last encodable block id
   and generation still seal; one past either is refused, and a flush
   whose metadata generation would leave the range writes nothing. *)
let test_nonce_bounds () =
  Alcotest.(check string) "block nonce layout"
    "\x04\x03\x02\x01\x07\x06\x05\x00\x00\x00\x00\x00"
    (Sefs.block_nonce 0x01020304 0x050607);
  Alcotest.(check string) "meta nonce layout"
    "\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x01"
    (Sefs.meta_nonce 1);
  Alcotest.(check string) "largest block id and generation"
    "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x00"
    (Sefs.block_nonce 0xffff_ffff ((1 lsl 56) - 1));
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s must be refused" what
  in
  refused "block id 2^32" (fun () -> Sefs.block_nonce (1 lsl 32) 1);
  refused "negative block id" (fun () -> Sefs.block_nonce (-1) 1);
  refused "block generation 2^56" (fun () -> Sefs.block_nonce 0 (1 lsl 56));
  refused "meta generation 2^56" (fun () -> Sefs.meta_nonce (1 lsl 56));
  refused "negative meta generation" (fun () -> Sefs.meta_nonce (-1));
  let t = fresh () in
  wr t "/f" "before";
  Sefs.flush t;
  let host = t.Sefs.host in
  let meta = Option.map snd host.Sefs.Host_store.meta in
  host.meta <- Option.map (fun e -> ((1 lsl 56) - 1, e)) meta;
  wr t "/f" "after";
  let writes = host.writes and blocks = Hashtbl.copy host.blocks in
  refused "flush at metadata generation 2^56" (fun () -> Sefs.flush t);
  Alcotest.(check int) "no block written back" writes host.writes;
  Alcotest.(check bool) "host blocks unchanged" true
    (Hashtbl.fold (fun k e ok -> ok && Hashtbl.find_opt host.blocks k = Some e)
       blocks (Hashtbl.length blocks = Hashtbl.length host.blocks));
  Alcotest.(check bool) "metadata unchanged" true
    (Option.map snd host.meta = meta);
  Alcotest.(check string) "the write is still cached" "after" (rd t "/f");
  host.meta <- Option.map (fun e -> (1 lsl 56, e)) meta;
  Alcotest.check_raises "a host's generation past the range"
    (Sefs.Corrupt "bad metadata generation") (fun () ->
      ignore (Sefs.mount ~key:"test-key" host))

(* --- model-based property -------------------------------------------------- *)

(* The model: a pure tree whose directories list their entries in readdir
   order (a new name goes last, a renamed one first). *)
type mnode = MFile of string | MDir of (string * mnode) list

type op =
  | Create of string list
  | Mkdir of string list
  | Write of string list * string
  | Unlink of string list
  | Rename of string list * string list
  | Remount

let path segs = "/" ^ String.concat "/" segs

let show_op = function
  | Create p -> "create " ^ path p
  | Mkdir p -> "mkdir " ^ path p
  | Write (p, c) -> Printf.sprintf "write %s (%d bytes)" (path p) (String.length c)
  | Unlink p -> "unlink " ^ path p
  | Rename (s, d) -> Printf.sprintf "rename %s %s" (path s) (path d)
  | Remount -> "flush+mount"

let rec m_find node segs =
  match (segs, node) with
  | [], n -> Some n
  | s :: rest, MDir es -> Option.bind (List.assoc_opt s es) (fun c -> m_find c rest)
  | _ :: _, MFile _ -> None

(* Apply [f] to the entries of the directory at [segs] (which exists). *)
let rec m_edit node segs f =
  match (segs, node) with
  | [], MDir es -> MDir (f es)
  | s :: rest, MDir es ->
      MDir (List.map (fun (n, c) -> if n = s then (n, m_edit c rest f) else (n, c)) es)
  | _ -> invalid_arg "m_edit"

let split segs =
  match List.rev segs with
  | name :: rev_dir -> (List.rev rev_dir, name)
  | [] -> invalid_arg "split"

let is_dir root segs = match m_find root segs with Some (MDir _) -> true | _ -> false

let rec proper_prefix a b =
  match (a, b) with
  | [], _ :: _ -> true
  | x :: xs, y :: ys -> x = y && proper_prefix xs ys
  | _ -> false

let m_put root segs node =
  let dir, name = split segs in
  m_edit root dir (fun es ->
      if List.mem_assoc name es then
        List.map (fun (n, c) -> if n = name then (n, node) else (n, c)) es
      else es @ [ (name, node) ])

(* One step of the model: the new tree and the errno SEFS must return. *)
let m_step root op =
  let module E = Occlum_abi.Abi.Errno in
  let create segs =
    match m_find root segs with
    | Some (MFile _) -> (root, Ok ())
    | Some (MDir _) -> (root, Error E.eisdir)
    | None ->
        if is_dir root (fst (split segs)) then (m_put root segs (MFile ""), Ok ())
        else (root, Error E.enoent)
  in
  match op with
  | Create p -> create p
  | Write (p, c) -> (
      match create p with
      | root', Ok () -> (m_put root' p (MFile c), Ok ())
      | r -> r)
  | Mkdir p -> (
      match m_find root p with
      | Some _ -> (root, Error E.eexist)
      | None ->
          if is_dir root (fst (split p)) then (m_put root p (MDir []), Ok ())
          else (root, Error E.enoent))
  | Unlink p -> (
      let dir, name = split p in
      match m_find root p with
      | _ when not (is_dir root dir) -> (root, Error E.enoent)
      | None -> (root, Error E.enoent)
      | Some (MDir (_ :: _)) -> (root, Error E.enotempty)
      | Some _ -> (m_edit root dir (List.remove_assoc name), Ok ()))
  | Rename (s, d) -> (
      let sdir, sname = split s and ddir, dname = split d in
      if not (is_dir root sdir && is_dir root ddir) then (root, Error E.enoent)
      else
        match m_find root s with
        | None -> (root, Error E.enoent)
        | Some moved -> (
            if proper_prefix s d then (root, Error E.einval)
            else
              match (m_find root d, moved) with
              | Some _, _ when s = d -> (root, Ok ())
              | Some (MDir (_ :: _)), _ -> (root, Error E.enotempty)
              | Some (MDir _), MFile _ -> (root, Error E.eisdir)
              | Some (MFile _), MDir _ -> (root, Error E.enotdir)
              | _ ->
                  let root = m_edit root sdir (List.remove_assoc sname) in
                  ( m_edit root ddir (fun es ->
                        (dname, moved) :: List.remove_assoc dname es),
                    Ok () )))
  | Remount -> (root, Ok ())

let rec m_count = function
  | MFile _ -> 1
  | MDir es -> List.fold_left (fun k (_, c) -> k + m_count c) 1 es

let names = [ "a"; "b"; "c" ]

(* every path of depth 0..3 over [names] *)
let universe =
  let ext ps = List.concat_map (fun p -> List.map (fun n -> p @ [ n ]) names) ps in
  let d1 = ext [ [] ] in
  let d2 = ext d1 in
  [] :: (d1 @ d2 @ ext d2)

(* SEFS and the model agree on every path: lookup, readdir (with its
   order), read_path, and the number of live inodes. *)
let agrees t root =
  let module E = Occlum_abi.Abi.Errno in
  List.for_all
    (fun segs ->
      let p = path segs in
      let m = m_find root segs in
      let lookup_ok =
        match (Sefs.lookup t p, m) with
        | None, None -> true
        | Some { Sefs.kind = Sefs.Dir; _ }, Some (MDir _) -> true
        | Some ({ Sefs.kind = Sefs.File; _ } as n), Some (MFile c) ->
            n.Sefs.size = String.length c
        | _ -> false
      in
      let readdir_ok =
        Sefs.readdir t p
        = (match m with
          | Some (MDir es) -> Ok (List.map fst es)
          | Some (MFile _) -> Error E.enotdir
          | None -> Error E.enoent)
      in
      let read_ok =
        Sefs.read_path t p
        = (match m with
          | Some (MFile c) -> Ok c
          | Some (MDir _) -> Error E.eisdir
          | None -> Error E.enoent)
      in
      lookup_ok && readdir_ok && read_ok)
    universe
  && live_inodes t = m_count root

let gen_ops =
  let open QCheck.Gen in
  let seg = oneofl names in
  let segs = list_size (int_range 1 3) seg in
  let content =
    oneof
      [ string_size ~gen:printable (int_range 0 40);
        map2 (fun n c -> String.make n c) (int_range 0 9000) printable ]
  in
  list_size (int_range 1 40)
    (frequency
       [ (2, map (fun p -> Create p) segs);
         (3, map (fun p -> Mkdir p) segs);
         (3, map2 (fun p c -> Write (p, c)) segs content);
         (2, map (fun p -> Unlink p) segs);
         (3, map2 (fun s d -> Rename (s, d)) segs segs);
         (1, return Remount) ])

let prop_sefs_model =
  QCheck.Test.make ~name:"SEFS agrees with a path model across flush+mount"
    ~count:150
    (QCheck.make gen_ops ~print:(fun ops -> String.concat "; " (List.map show_op ops)))
    (fun ops ->
      let t = ref (fresh ()) in
      let unit_of r = Result.map ignore r in
      let step root op =
        let root', want = m_step root op in
        let got =
          match op with
          | Create p -> unit_of (Sefs.create_file !t (path p))
          | Mkdir p -> unit_of (Sefs.mkdir !t (path p))
          | Write (p, c) -> unit_of (Sefs.write_path !t (path p) c)
          | Unlink p -> Sefs.unlink !t (path p)
          | Rename (s, d) -> Sefs.rename !t (path s) (path d)
          | Remount ->
              Sefs.flush !t;
              t := Sefs.mount ~key:"test-key" !t.Sefs.host;
              Ok ()
        in
        if got <> want then
          QCheck.Test.fail_reportf "%s: SEFS %s, model %s" (show_op op)
            (match got with Ok () -> "ok" | Error e -> string_of_int e)
            (match want with Ok () -> "ok" | Error e -> string_of_int e);
        if not (agrees !t root') then
          QCheck.Test.fail_reportf "after %s: SEFS and the model disagree" (show_op op);
        root'
      in
      ignore (List.fold_left step (MDir []) (ops @ [ Remount ]));
      true)

(* --- file data against a byte model ---------------------------------------- *)

type dop = Dwrite of int * string | Dtruncate of int | Dremount

let show_dop = function
  | Dwrite (pos, d) -> Printf.sprintf "write %d bytes at %d" (String.length d) pos
  | Dtruncate n -> Printf.sprintf "truncate %d" n
  | Dremount -> "flush+mount"

(* Offsets reach past three blocks, so writes and resizes cross block
   boundaries and leave whole blocks behind a shrink. *)
let gen_dop =
  let open QCheck.Gen in
  let off = int_range 0 ((3 * Sefs.block_size) + 50) in
  frequency
    [
      ( 4,
        map2
          (fun pos d -> Dwrite (pos, d))
          off
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 600)) );
      (3, map (fun n -> Dtruncate n) off);
      (1, return Dremount);
    ]

let m_apply m = function
  | Dwrite (pos, d) ->
      let b = Bytes.make (max (String.length m) (pos + String.length d)) '\000' in
      Bytes.blit_string m 0 b 0 (String.length m);
      Bytes.blit_string d 0 b pos (String.length d);
      Bytes.to_string b
  | Dtruncate n ->
      if n <= String.length m then String.sub m 0 n
      else m ^ String.make (n - String.length m) '\000'
  | Dremount -> m

(* Every write, shrink and regrowth of one file reads back as the byte
   model says: no byte from before a shrink shows through a later
   growth, in the cache or after a remount. *)
let prop_file_data_model =
  QCheck.Test.make ~name:"file data = byte model across resizes" ~count:150
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_dop ops))
       QCheck.Gen.(list_size (int_range 1 20) gen_dop))
    (fun ops ->
      let t = ref (fresh ()) in
      wr !t "/f" "";
      List.fold_left
        (fun m op ->
          let f = node !t "/f" in
          (match op with
          | Dwrite (pos, d) -> ignore (Sefs.write_file !t f ~pos (Bytes.of_string d))
          | Dtruncate n -> ignore (Sefs.truncate !t f n)
          | Dremount ->
              Sefs.flush !t;
              t := Sefs.mount ~key:"test-key" !t.Sefs.host);
          let m = m_apply m op in
          if rd !t "/f" <> m then
            QCheck.Test.fail_reportf "after %s: file and model differ" (show_dop op);
          m)
        "" ops
      |> ignore;
      true)

(* --- metadata round trip ------------------------------------------------ *)

(* Random metadata (files and directories whose names hold spaces, digits
   and minus signs, sparse and multi-block data, unlinks that free inodes
   and blocks) survives flush+mount field for field: every inode (kind,
   size, block ids, entries in order, link count), every block's
   generation (each file reads back), and both allocation counters (the
   next file and block get the same numbers on either side). *)
let prop_meta_roundtrip =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b c"; "7"; "-1"; "x  y"; "long name 42" ] in
  let op =
    frequency
      [
        (3, map2 (fun d n -> `Mkdir (d, n)) (int_range 0 3) name);
        ( 5,
          map3
            (fun d n (pos, len) -> `Write (d, n, pos, len))
            (int_range 0 3) name
            (pair (int_range 0 (3 * Sefs.block_size)) (int_range 1 5000)) );
        (2, map2 (fun d n -> `Unlink (d, n)) (int_range 0 3) name);
      ]
  in
  QCheck.Test.make ~name:"metadata round-trips through flush+mount" ~count:100
    (QCheck.make ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
       (list_size (int_range 1 30) op))
    (fun ops ->
      let t = fresh () in
      let dirs = [| "/"; "/d1/"; "/d1/d2/"; "/e/" |] in
      Array.iter (fun d -> if d <> "/" then ignore (Sefs.mkdir t d)) dirs;
      List.iter
        (function
          | `Mkdir (d, n) -> ignore (Sefs.mkdir t (dirs.(d) ^ n))
          | `Write (d, n, pos, len) -> (
              let p = dirs.(d) ^ n in
              ignore (Sefs.create_file t p);
              match Sefs.lookup t p with
              | Some ({ Sefs.kind = Sefs.File; _ } as f) ->
                  ignore (Sefs.write_file t f ~pos (Bytes.make len 'q'))
              | _ -> ())
          | `Unlink (d, n) -> ignore (Sefs.unlink t (dirs.(d) ^ n)))
        ops;
      Sefs.flush t;
      let t2 = Sefs.mount ~key:"test-key" t.Sefs.host in
      for ino = 0 to 300 do
        match (Sefs.inode t ino, Sefs.inode t2 ino) with
        | None, None -> ()
        | Some a, Some b when a = b -> (
            match a.Sefs.kind with
            | Sefs.File ->
                if Sefs.read_file t a ~pos:0 ~len:a.Sefs.size
                   <> Sefs.read_file t2 b ~pos:0 ~len:b.Sefs.size
                then
                  QCheck.Test.fail_reportf "inode %d reads back differently"
                    ino
            | Sefs.Dir -> ())
        | _ -> QCheck.Test.fail_reportf "inode %d differs after mount" ino
      done;
      let next t =
        match Sefs.write_path t "/next" "z" with
        | Ok n -> (n.Sefs.ino, n.Sefs.blocks)
        | Error e -> QCheck.Test.fail_reportf "write /next: errno %d" e
      in
      if next t <> next t2 then
        QCheck.Test.fail_reportf "allocation counters differ after mount";
      true)

let suite =
  [
    Alcotest.test_case "basic files" `Quick test_basic_files;
    Alcotest.test_case "host image roundtrip" `Quick test_image_roundtrip;
    Alcotest.test_case "directories" `Quick test_directories;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "multi-block files" `Quick test_multiblock;
    Alcotest.test_case "sparse files" `Quick test_sparse;
    Alcotest.test_case "persistence across remount" `Quick test_persistence;
    Alcotest.test_case "confidentiality" `Quick test_confidentiality;
    Alcotest.test_case "integrity (tamper detection)" `Quick test_integrity;
    Alcotest.test_case "wrong key" `Quick test_wrong_key;
    Alcotest.test_case "shared page cache" `Quick test_page_cache;
    Alcotest.test_case "plaintext (ext4 model) mode" `Quick test_plaintext_mode;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "block nonces unique" `Quick test_block_nonces_unique;
    Alcotest.test_case "rename over a file frees it" `Quick test_rename_replaces;
    Alcotest.test_case "rename into own subtree" `Quick test_rename_into_own_subtree;
    Alcotest.test_case "version-1 image refused" `Quick test_image_v1_rejected;
    Alcotest.test_case "version-2 image refused" `Quick test_image_v2_rejected;
    Alcotest.test_case "version-3 image refused" `Quick test_image_v3_rejected;
    Alcotest.test_case "nonce range refused" `Quick test_nonce_bounds;
    QCheck_alcotest.to_alcotest prop_sefs_model;
    QCheck_alcotest.to_alcotest prop_file_data_model;
    QCheck_alcotest.to_alcotest prop_meta_roundtrip;
  ]
