type 'a t = {
  mu : Mutex.t;
  mutable group : string option;
  entries : (string, 'a) Hashtbl.t;
}

let create () =
  { mu = Mutex.create (); group = None; entries = Hashtbl.create 8 }

let find t ~group ~key =
  Mutex.protect t.mu (fun () ->
      if t.group <> Some group then begin
        Hashtbl.reset t.entries;
        t.group <- Some group
      end;
      Hashtbl.find_opt t.entries key)

let add t ~group ~key v =
  Mutex.protect t.mu (fun () ->
      if t.group = Some group && not (Hashtbl.mem t.entries key) then
        Hashtbl.add t.entries key v)

let length t = Mutex.protect t.mu (fun () -> Hashtbl.length t.entries)
