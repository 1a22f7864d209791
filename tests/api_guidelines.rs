//! API-guideline conformance (Rust API Guidelines):
//! C-SEND-SYNC — public types are `Send`/`Sync` where possible;
//! C-GOOD-ERR — public error types implement `Error + Send + Sync`.

fn assert_send_sync<T: Send + Sync>() {}
fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}

#[test]
fn core_types_are_send_and_sync() {
    assert_send_sync::<stochastic_hmd::BaselineHmd>();
    assert_send_sync::<stochastic_hmd::StochasticHmd>();
    assert_send_sync::<stochastic_hmd::Rhmd>();
    assert_send_sync::<stochastic_hmd::Label>();
    assert_send_sync::<stochastic_hmd::RocCurve>();
    assert_send_sync::<stochastic_hmd::MonitorReport>();
    assert_send_sync::<stochastic_hmd::DetectionPolicy>();
    assert_send_sync::<stochastic_hmd::MonitoringService>();
    assert_send_sync::<stochastic_hmd::Verdict>();
    assert_send_sync::<stochastic_hmd::QueryDisposition>();
    assert_send_sync::<stochastic_hmd::TelemetrySnapshot>();
    assert_send_sync::<stochastic_hmd::ShardHealth>();
    assert_send_sync::<stochastic_hmd::SupervisionRecord>();
    assert_send_sync::<stochastic_hmd::Supervisor>();
    assert_send_sync::<stochastic_hmd::SupervisorConfig>();
    assert_send_sync::<stochastic_hmd::ChaosPlan>();
    assert_send_sync::<stochastic_hmd::ChaosEvent>();
    assert_send_sync::<shmd_volt::environment::ThermalEnvironment>();
    assert_send_sync::<stochastic_hmd::ServiceCheckpoint>();
    assert_send_sync::<stochastic_hmd::StateJournal>();
    assert_send_sync::<stochastic_hmd::BatchCommit>();
    assert_send_sync::<stochastic_hmd::JournalRecovery>();
    assert_send_sync::<stochastic_hmd::Frame>();
    assert_send_sync::<stochastic_hmd::RejectCode>();
    assert_send_sync::<stochastic_hmd::Daemon>();
    assert_send_sync::<stochastic_hmd::DaemonPhase>();
    assert_send_sync::<stochastic_hmd::AdmissionConfig>();
    assert_send_sync::<stochastic_hmd::AdmissionStats>();
}

#[test]
fn substrate_types_are_send_and_sync() {
    assert_send_sync::<shmd_fixed::Q16>();
    assert_send_sync::<shmd_fixed::Accumulator>();
    assert_send_sync::<shmd_volt::FaultModel>();
    assert_send_sync::<shmd_volt::FaultStream<shmd_volt::FaultModel>>();
    assert_send_sync::<shmd_volt::FaultStream<&'static shmd_volt::FaultModel>>();
    assert_send_sync::<shmd_volt::CalibrationCurve>();
    assert_send_sync::<shmd_volt::AdaptiveVoltageController>();
    assert_send_sync::<shmd_volt::MsrVoltageCommand>();
    assert_send_sync::<shmd_ann::Network>();
    assert_send_sync::<shmd_ann::QuantizedNetwork>();
    assert_send_sync::<shmd_ml::LogisticRegression>();
    assert_send_sync::<shmd_ml::DecisionTree>();
    assert_send_sync::<shmd_ml::RandomForest>();
    assert_send_sync::<shmd_workload::Dataset>();
    assert_send_sync::<shmd_workload::Trace>();
    assert_send_sync::<shmd_workload::Program>();
    assert_send_sync::<shmd_attack::Proxy>();
    assert_send_sync::<shmd_attack::EvasiveSample>();
    assert_send_sync::<shmd_power::CmosPowerModel>();
    assert_send_sync::<shmd_power::BatteryModel>();
    assert_send_sync::<shmd_power::LatencyModel>();
    assert_send_sync::<stochastic_hmd::supervisor::PowerBudgetPolicy>();
}

#[test]
fn error_types_are_well_behaved() {
    assert_error::<shmd_volt::FaultModelError>();
    assert_error::<shmd_volt::CalibrationError>();
    assert_error::<shmd_volt::voltage::ParseMsrCommandError>();
    assert_error::<shmd_ann::BuildNetworkError>();
    assert_error::<shmd_ann::io::ParseNetworkError>();
    assert_error::<shmd_ann::train::TrainDataError>();
    assert_error::<shmd_ml::FitError>();
    assert_error::<shmd_ml::FitScalerError>();
    assert_error::<shmd_workload::export::ParseCsvError>();
    assert_error::<stochastic_hmd::TrainHmdError>();
    assert_error::<stochastic_hmd::EnclaveError>();
    assert_error::<stochastic_hmd::RocError>();
    assert_error::<stochastic_hmd::explore::ExploreError>();
    assert_error::<stochastic_hmd::ServeError>();
    assert_error::<stochastic_hmd::CheckpointError>();
    assert_error::<stochastic_hmd::RestoreError>();
    assert_error::<stochastic_hmd::WireError>();
    assert_error::<stochastic_hmd::HandoffError>();
    assert_error::<shmd_attack::ReverseError>();
    assert_error::<shmd_power::InfeasibleDuty>();
}

#[test]
fn error_messages_are_lowercase_without_trailing_punctuation() {
    // C-GOOD-ERR style check on representative messages.
    let samples: Vec<String> = vec![
        shmd_volt::FaultModelError::InvalidErrorRate(2.0).to_string(),
        shmd_ml::FitError::EmptyTrainingSet.to_string(),
        shmd_ann::BuildNetworkError::MissingOutput.to_string(),
        shmd_attack::ReverseError::NoQueries.to_string(),
        stochastic_hmd::CheckpointError::BadMagic.to_string(),
        stochastic_hmd::CheckpointError::UnsupportedVersion(9).to_string(),
        stochastic_hmd::RestoreError::SupervisorRequired.to_string(),
        stochastic_hmd::WireError::BadMagic.to_string(),
        stochastic_hmd::WireError::UnsupportedVersion(9).to_string(),
        stochastic_hmd::WireError::Oversized {
            declared: 1 << 40,
            cap: 1 << 20,
        }
        .to_string(),
        stochastic_hmd::HandoffError::NotHandoff.to_string(),
        stochastic_hmd::HandoffError::ChecksumMismatch {
            expected: 1,
            got: 2,
        }
        .to_string(),
    ];
    for msg in samples {
        let first = msg.chars().next().expect("non-empty");
        assert!(
            first.is_lowercase() || first.is_numeric(),
            "error message should start lowercase: {msg}"
        );
        assert!(
            !msg.ends_with('.') && !msg.ends_with('!'),
            "error message should not end with punctuation: {msg}"
        );
    }
}
