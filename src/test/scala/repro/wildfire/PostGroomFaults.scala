package repro.wildfire

import java.nio.file.Files

/** Deterministic post-groom faults for crash tests. */
object PostGroomFaults {

  /** A post-groom that stops after writing its blocks, endTS delta and
    * sidecars but before publishing its state: it runs one, then puts the
    * `postgroom-state` file back as it was (deleting it for the first PSN).
    */
  def postGroomWithoutPublish(shard: Shard): Unit = {
    val state = ShardFiles.stateFile(shard.sharedRoot)
    val before = if (Files.exists(state)) Some(Files.readAllBytes(state)) else None
    require(shard.postGroomOnce().isDefined, "nothing to post-groom")
    before match {
      case Some(bytes) => Files.write(state, bytes)
      case None => Files.delete(state)
    }
  }
}
