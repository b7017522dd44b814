(** Minimal HTTP/1.0 client: one request per connection, the connection
    close delimits the reply. *)

let sockaddr port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* Index just past the "\r\n\r\n" that ends the head, or the length. *)
let body_start raw =
  let n = String.length raw in
  let rec find i =
    if i + 3 >= n then n
    else if
      raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
      && raw.[i + 3] = '\n'
    then i + 4
    else find (i + 1)
  in
  find 0

(** [request ?meth ~port path body] — status and body of one exchange
    with 127.0.0.1:[port]. Raises [Unix.Unix_error] if the connection
    fails. *)
let request ?(meth = "POST") ~port path body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (sockaddr port);
      let req =
        Printf.sprintf "%s %s HTTP/1.0\r\nHost: b\r\nContent-Length: %d\r\n\r\n%s"
          meth path (String.length body) body
      in
      let rec write off =
        if off < String.length req then
          write (off + Unix.write_substring fd req off (String.length req - off))
      in
      write 0;
      let buf = Buffer.create 4096 and chunk = Bytes.create 16384 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      drain ();
      let raw = Buffer.contents buf in
      let status =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
        | _ -> 0
      in
      let s = body_start raw in
      (status, String.sub raw s (String.length raw - s)))

(** A free loopback TCP port (bound and released; a race with another
    process is possible but the caller's bind then fails loudly). *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (sockaddr 0);
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> failwith "free_port: not an inet socket")
