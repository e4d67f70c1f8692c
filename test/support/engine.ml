(* Run [f] with the process-wide IR engine default set to [e], restoring
   the previous default afterwards. The default is the one engine selector
   above [Interp.create], so tests switch engines exactly as WD_ENGINE
   does. *)
let with_default e f =
  let prev = Wd_ir.Interp.default_engine () in
  Fun.protect
    ~finally:(fun () -> Wd_ir.Interp.set_default_engine prev)
    (fun () ->
      Wd_ir.Interp.set_default_engine e;
      f ())
