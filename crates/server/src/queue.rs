//! The persistent, directory-backed FIFO job queue.
//!
//! Layout under the queue root:
//!
//! ```text
//! <root>/jobs/000001/spec.toml        submitted spec, verbatim
//! <root>/jobs/000001/state            submitted | running | done | failed
//! <root>/jobs/000001/checkpoint.json  tapeworm-checkpoint-v1 prefix (while running)
//! <root>/jobs/000001/result.jsonl     run sink (after completion)
//! <root>/jobs/000001/report.json      job report (after completion)
//! ```
//!
//! Crash safety is directory-native: job IDs are claimed with the
//! atomic `create_dir` primitive, every small file is written through
//! [`write_atomic`] (temp + rename), and the in-flight trial prefix
//! lives in a `tapeworm-checkpoint-v1` document — so a worker killed
//! mid-job leaves a `running` job whose next claimant resumes from the
//! committed prefix instead of starting over. A job directory without a
//! `state` file is a half-created submission and is ignored.
//!
//! Ordering is strict FIFO by job ID, with one twist: `running` jobs
//! (orphans from a crash) are claimable again alongside `submitted`
//! ones, so recovery needs no separate repair step. The queue assumes a
//! single drain loop at a time — the paper's sweeps are batch jobs, not
//! a multi-tenant service.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use tapeworm_obs::write_atomic;

/// A job's position in the queue, assigned at submission.
pub type JobId = u64;

/// Lifecycle states of a queued job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a worker.
    Submitted,
    /// Claimed by a worker (or orphaned by a crashed one).
    Running,
    /// Completed; `result.jsonl` and `report.json` exist. Individual
    /// trials may still have failed gracefully — see the report.
    Done,
    /// Aborted before producing results (bad spec or backend error).
    Failed,
}

impl JobState {
    /// The on-disk state-file token.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Submitted => "submitted",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    fn parse(text: &str) -> Option<JobState> {
        match text.trim() {
            "submitted" => Some(JobState::Submitted),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }
}

/// Handle to a queue root directory.
#[derive(Debug, Clone)]
pub struct JobQueue {
    root: PathBuf,
}

impl JobQueue {
    /// Opens (creating if needed) the queue at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join("jobs"))?;
        Ok(JobQueue { root })
    }

    /// The queue root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn jobs_dir(&self) -> PathBuf {
        self.root.join("jobs")
    }

    /// The directory holding one job's files.
    pub fn job_dir(&self, id: JobId) -> PathBuf {
        self.jobs_dir().join(format!("{id:06}"))
    }

    /// The job's submitted spec file.
    pub fn spec_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("spec.toml")
    }

    /// The job's in-flight checkpoint file.
    pub fn checkpoint_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("checkpoint.json")
    }

    /// The job's JSONL run sink.
    pub fn sink_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("result.jsonl")
    }

    /// The job's completion report.
    pub fn report_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("report.json")
    }

    /// Submits a spec (stored verbatim), returning the new job's ID.
    /// The ID directory is claimed atomically, so concurrent submitters
    /// never collide; the `state` file is written last, making the
    /// submission visible only once complete. IDs only grow, so a
    /// queue holding a directory named `u64::MAX` takes no more jobs.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures, and fails when no ID above every
    /// existing directory name is left.
    pub fn submit(&self, spec_text: &str) -> io::Result<JobId> {
        // Scan raw directory names (not `jobs()`) so half-created
        // directories still reserve their IDs.
        let mut id: JobId = 1;
        for entry in fs::read_dir(self.jobs_dir())? {
            if let Some(n) = entry?
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<JobId>().ok())
            {
                id = id.max(n.saturating_add(1));
            }
        }
        loop {
            match fs::create_dir(self.job_dir(id)) {
                Ok(()) => break,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    id = id
                        .checked_add(1)
                        .ok_or_else(|| io::Error::other("job ID space exhausted"))?;
                }
                Err(e) => return Err(e),
            }
        }
        write_atomic(&self.spec_path(id), spec_text.as_bytes())?;
        self.set_state(id, JobState::Submitted)?;
        Ok(id)
    }

    /// All visible jobs with their states, ascending by ID. Half-created
    /// directories and any whose `state` file holds no known token
    /// (UTF-8 or not) are skipped.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures.
    pub fn jobs(&self) -> io::Result<Vec<(JobId, JobState)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(self.jobs_dir())? {
            let entry = entry?;
            let name = entry.file_name();
            // Only the canonical spelling names a job: `1` or `+1` next
            // to `000001` would list job 1 twice.
            let Some(id) = name
                .to_str()
                .and_then(|s| s.parse::<JobId>().ok().filter(|id| format!("{id:06}") == s))
            else {
                continue;
            };
            if let Some(state) = self.state(id)? {
                out.push((id, state));
            }
        }
        out.sort_unstable_by_key(|&(id, _)| id);
        Ok(out)
    }

    /// The job's current state, or `None` if it does not (visibly)
    /// exist or its `state` file holds no known token.
    ///
    /// # Errors
    ///
    /// Propagates read failures other than the file being missing.
    pub fn state(&self, id: JobId) -> io::Result<Option<JobState>> {
        match fs::read(self.job_dir(id).join("state")) {
            Ok(bytes) => Ok(std::str::from_utf8(&bytes).ok().and_then(JobState::parse)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Atomically transitions the job's state file.
    ///
    /// # Errors
    ///
    /// Propagates the atomic-write failure.
    pub fn set_state(&self, id: JobId, state: JobState) -> io::Result<()> {
        write_atomic(&self.job_dir(id).join("state"), state.name().as_bytes())
    }

    /// The job's spec text.
    ///
    /// # Errors
    ///
    /// Propagates read failures (including a missing job).
    pub fn spec_text(&self, id: JobId) -> io::Result<String> {
        fs::read_to_string(self.spec_path(id))
    }

    /// Claims the oldest runnable job — `submitted`, or `running`
    /// (an orphan left by a crashed worker, which will resume from its
    /// checkpoint) — marking it `running`. Returns `None` when the
    /// queue is drained.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn claim_next(&self) -> io::Result<Option<JobId>> {
        for (id, state) in self.jobs()? {
            if matches!(state, JobState::Submitted | JobState::Running) {
                self.set_state(id, JobState::Running)?;
                return Ok(Some(id));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_queue(tag: &str) -> JobQueue {
        let root = std::env::temp_dir().join(format!("tapeworm-queue-test-{tag}"));
        let _ = fs::remove_dir_all(&root);
        JobQueue::open(&root).unwrap()
    }

    #[test]
    fn submit_claim_complete_is_fifo() {
        let q = temp_queue("fifo");
        let a = q.submit("name = \"a\"").unwrap();
        let b = q.submit("name = \"b\"").unwrap();
        assert!(a < b);
        assert_eq!(q.spec_text(a).unwrap(), "name = \"a\"");
        assert_eq!(q.claim_next().unwrap(), Some(a));
        assert_eq!(q.state(a).unwrap(), Some(JobState::Running));
        // An orphaned running job is re-claimable before later work.
        assert_eq!(q.claim_next().unwrap(), Some(a));
        q.set_state(a, JobState::Done).unwrap();
        assert_eq!(q.claim_next().unwrap(), Some(b));
        q.set_state(b, JobState::Failed).unwrap();
        assert_eq!(q.claim_next().unwrap(), None);
        assert_eq!(
            q.jobs().unwrap(),
            vec![(a, JobState::Done), (b, JobState::Failed)]
        );
        fs::remove_dir_all(q.root()).unwrap();
    }

    #[test]
    fn half_created_and_foreign_directories_are_invisible() {
        let q = temp_queue("half");
        fs::create_dir(q.root().join("jobs/000009")).unwrap(); // no state file
        fs::create_dir(q.root().join("jobs/garbage")).unwrap();
        assert_eq!(q.jobs().unwrap(), vec![]);
        assert_eq!(q.claim_next().unwrap(), None);
        // Submission skips past the claimed-but-invisible ID 9.
        let id = q.submit("x").unwrap();
        assert_eq!(id, 10);
        fs::remove_dir_all(q.root()).unwrap();
    }

    #[test]
    fn a_non_utf8_state_hides_only_its_own_job() {
        let q = temp_queue("non-utf8");
        let a = q.submit("a").unwrap();
        let b = q.submit("b").unwrap();
        fs::write(q.job_dir(a).join("state"), [0xff, 0xfe, b'd']).unwrap();
        assert_eq!(q.state(a).unwrap(), None);
        assert_eq!(q.jobs().unwrap(), vec![(b, JobState::Submitted)]);
        assert_eq!(q.claim_next().unwrap(), Some(b));
        fs::remove_dir_all(q.root()).unwrap();
    }

    #[test]
    fn the_largest_job_id_cannot_overflow_submit() {
        let q = temp_queue("max-id");
        fs::create_dir(q.root().join(format!("jobs/{}", JobId::MAX))).unwrap();
        let err = q.submit("x").unwrap_err();
        assert!(err.to_string().contains("exhausted"), "{err}");
        assert_eq!(q.jobs().unwrap(), vec![]);
        fs::remove_dir_all(q.root()).unwrap();
    }

    #[test]
    fn only_canonical_directory_names_are_jobs() {
        let q = temp_queue("canonical");
        let a = q.submit("a").unwrap();
        for alias in ["1", "+1", "0000001"] {
            fs::create_dir(q.root().join("jobs").join(alias)).unwrap();
        }
        assert_eq!(q.jobs().unwrap(), vec![(a, JobState::Submitted)]);
        fs::remove_dir_all(q.root()).unwrap();
    }
}
