(* occlum_sefs: the host-side utility for preparing and inspecting
   Occlum encrypted file-system images (the paper's FUSE-based tool,
   §8). The image file (format version 4, magic SEFSIMG4) holds only
   ciphertext and keyed BLAKE2b tags; every operation that touches
   plaintext needs the volume key, and an image of an older version is
   refused with a message that names it.

     occlum_sefs create -i img.sefs
     occlum_sefs add -i img.sefs --from host.bin --to /bin/app
     occlum_sefs mkdir -i img.sefs /data
     occlum_sefs ls -i img.sefs /
     occlum_sefs cat -i img.sefs /data/file
     occlum_sefs tamper -i img.sefs --block 0     (for integrity demos) *)

open Cmdliner
module Sefs = Occlum_libos.Sefs

let default_key = "occlum-fs-master-key"

let mount_image image key =
  if Sys.file_exists image then
    match Sefs.Host_store.load image with
    | host -> Sefs.mount ~key host
    | exception Sefs.Host_store.Bad_image why ->
        Printf.eprintf "error: %s: %s\n" image why;
        exit 1
  else Sefs.create ~key ()

let save fs image =
  Sefs.flush fs;
  Sefs.Host_store.save fs.Sefs.host image

let errno_fail e = Printf.eprintf "error: errno %d\n" e; exit 1

let create_cmd =
  let run image key =
    save (Sefs.create ~key ()) image;
    Printf.printf "created empty encrypted image %s\n" image
  in
  Cmd.v (Cmd.info "create" ~doc:"Create an empty encrypted image")
    Term.(
      const run
      $ Arg.(required & opt (some string) None & info [ "i"; "image" ])
      $ Arg.(value & opt string default_key & info [ "k"; "key" ]))

let add_cmd =
  let run image key from to_ =
    let fs = mount_image image key in
    let ic = open_in_bin from in
    let content = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sefs.ensure_parents fs to_;
    (match Sefs.write_path fs to_ content with
    | Ok _ -> ()
    | Error e -> errno_fail e);
    save fs image;
    Printf.printf "%s -> %s (%d bytes, encrypted)\n" from to_ (String.length content)
  in
  Cmd.v (Cmd.info "add" ~doc:"Encrypt a host file into the image")
    Term.(
      const run
      $ Arg.(required & opt (some string) None & info [ "i"; "image" ])
      $ Arg.(value & opt string default_key & info [ "k"; "key" ])
      $ Arg.(required & opt (some file) None & info [ "from" ])
      $ Arg.(required & opt (some string) None & info [ "to" ]))

let mkdir_cmd =
  let run image key path =
    let fs = mount_image image key in
    Sefs.ensure_parents fs (path ^ "/x");
    save fs image;
    Printf.printf "mkdir -p %s\n" path
  in
  Cmd.v (Cmd.info "mkdir" ~doc:"Create a directory (with parents)")
    Term.(
      const run
      $ Arg.(required & opt (some string) None & info [ "i"; "image" ])
      $ Arg.(value & opt string default_key & info [ "k"; "key" ])
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH"))

let ls_cmd =
  let run image key path =
    let fs = mount_image image key in
    match Sefs.readdir fs path with
    | Ok names ->
        List.iter
          (fun n ->
            let full = (if path = "/" then "" else path) ^ "/" ^ n in
            match Sefs.lookup fs full with
            | Some node when node.Sefs.kind = Sefs.Dir ->
                Printf.printf "d %8s %s/\n" "-" n
            | Some node -> Printf.printf "f %8d %s\n" node.Sefs.size n
            | None -> Printf.printf "? %8s %s\n" "-" n)
          names
    | Error e -> errno_fail e
  in
  Cmd.v (Cmd.info "ls" ~doc:"List a directory")
    Term.(
      const run
      $ Arg.(required & opt (some string) None & info [ "i"; "image" ])
      $ Arg.(value & opt string default_key & info [ "k"; "key" ])
      $ Arg.(value & pos 0 string "/" & info [] ~docv:"PATH"))

let cat_cmd =
  let run image key path =
    let fs = mount_image image key in
    match Sefs.read_path fs path with
    | Ok s -> print_string s
    | Error e -> errno_fail e
  in
  Cmd.v (Cmd.info "cat" ~doc:"Decrypt and print a file")
    Term.(
      const run
      $ Arg.(required & opt (some string) None & info [ "i"; "image" ])
      $ Arg.(value & opt string default_key & info [ "k"; "key" ])
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH"))

let tamper_cmd =
  let run image block =
    (* deliberately key-less: the attack a malicious host mounts *)
    let host = Sefs.Host_store.load image in
    if Sefs.Host_store.tamper host block then begin
      Sefs.Host_store.save host image;
      Printf.printf "flipped one bit of ciphertext block %d\n" block
    end
    else begin
      Printf.eprintf "no such block %d\n" block;
      exit 1
    end
  in
  Cmd.v (Cmd.info "tamper" ~doc:"Flip a ciphertext bit (integrity demo)")
    Term.(
      const run
      $ Arg.(required & opt (some string) None & info [ "i"; "image" ])
      $ Arg.(value & opt int 0 & info [ "b"; "block" ]))

let cmd =
  Cmd.group
    (Cmd.info "occlum_sefs"
       ~doc:"Prepare and inspect Occlum encrypted FS images on the host")
    [ create_cmd; add_cmd; mkdir_cmd; ls_cmd; cat_cmd; tamper_cmd ]

let () = exit (Cmd.eval cmd)
